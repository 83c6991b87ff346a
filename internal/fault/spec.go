package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// SpecEntry is one parsed point=policy pair from a CLI spec.
type SpecEntry struct {
	Point  string
	Policy Policy
}

// ParseSpec parses the CLI fault-injection syntax used by the
// -fault flags of cmd/experiments and cmd/attrserve:
//
//	point=kind[:opt=val]...[,point=kind[:opt=val]...]
//
// kind is one of error, latency, partial, panic. Options: p=0.5
// (probability), every=3, after=2, limit=4, latency=5ms. Example:
//
//	featcache.disk.read=error:every=3:limit=2,stylometry.extract=latency:latency=20ms:p=0.5
func ParseSpec(spec string) ([]SpecEntry, error) {
	var out []SpecEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("fault: bad spec %q (want point=kind[:opt=val]...)", part)
		}
		fields := strings.Split(rest, ":")
		var p Policy
		switch fields[0] {
		case "error":
			p.Kind = KindError
		case "latency":
			p.Kind = KindLatency
		case "partial":
			p.Kind = KindPartialWrite
		case "panic":
			p.Kind = KindPanic
		default:
			return nil, fmt.Errorf("fault: %s: unknown kind %q (want error, latency, partial, or panic)", name, fields[0])
		}
		for _, opt := range fields[1:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("fault: %s: bad option %q (want opt=val)", name, opt)
			}
			var err error
			switch k {
			case "p":
				p.Prob, err = strconv.ParseFloat(v, 64)
			case "every":
				p.Every, err = strconv.Atoi(v)
			case "after":
				p.After, err = strconv.Atoi(v)
			case "limit":
				p.Limit, err = strconv.Atoi(v)
			case "latency":
				p.Latency, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("fault: %s: unknown option %q (want p, every, after, limit, or latency)", name, k)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: %s: option %s: %v", name, k, err)
			}
		}
		out = append(out, SpecEntry{Point: name, Policy: p})
	}
	return out, nil
}

// EnableSpec resets the default registry with the seed and arms every
// point of the parsed spec. An empty spec leaves injection disabled.
func EnableSpec(seed int64, spec string) ([]SpecEntry, error) {
	entries, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, nil
	}
	Enable(seed)
	for _, e := range entries {
		Set(e.Point, e.Policy)
	}
	return entries, nil
}
