package main

import "time"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report lists the metrics every pass prints, in print order, with
// their units.
var report = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_frac", "fraction"},
	{"full_frac", "fraction"},
	{"cpu_us_per_req", "us"},
	{"rss_peak_mb", "MB"},
}

// endToEnd lists the metrics the result line carries with -trace 0;
// BENCHMARK.json declares the same set. It is report without two
// figures that cannot hold a regression bound on the 2-vCPU reference
// container, where co-tenants slow its cores for whole runs at a time:
//   - cpu_us_per_req moved by a quarter between runs of identical code.
//     The traced run carries it as serve.cpu_us_per_req.
//   - p99_ms of a 3 ms cold request is set by those slow runs: in one
//     set of ten seeds, three read 5 ms against 3.4 ms, a 39% spread.
//     p90_ms read the same kind of runs within 4-6%. Hostile stalls
//     sit above p90 (2% of requests); their cost shows in hostile rps.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ok_frac", "fraction"},
	{"full_frac", "fraction"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the metrics -trace 1 reports, in print order.
var perLayer = []struct{ name, unit string }{
	{"serve.batch_wait_us", "us"},
	{"serve.batch_size", "count"},
	{"serve.cpu_us_per_req", "us"},
	{"serve.handler_us", "us"},
	{"http.overhead_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.registry_load_ms", "ms"},
	{"serve.reload_ms", "ms"},
	{"featcache.get_us", "us"},
	{"featcache.put_us", "us"},
	{"featcache.hit_frac", "fraction"},
	{"featcache.entry_kb", "KiB"},
	{"stylometry.extract_us", "us"},
	{"stylometry.extract_p99_us", "us"},
	{"stylometry.degraded_frac", "fraction"},
	{"cpptok.scan_us", "us"},
	{"cppast.parse_us", "us"},
	{"semstats.analyze_us", "us"},
	{"semstats.analyze_max_ms", "ms"},
	{"semstats.depth_growth", "ratio"},
	{"attrib.oracle_us", "us"},
	{"attrib.detect_us", "us"},
	{"fleet.forward_us", "us"},
	{"fleet.hedge_frac", "fraction"},
	{"fleet.failovers", "count"},
	{"fleet.reload_ms", "ms"},
	{"trace.overhead_p50_us", "us"},
	{"trace.overhead_cpu_us_per_req", "us"},
}

// e2e summarizes one end-to-end pass: every metric of report.
type e2e struct {
	values  map[string]float64
	samples int // latency samples behind the percentiles
}

// quietQuantile picks, from per-window figures, the quartile of the
// quieter windows: the reference machine shares its cores with other
// tenants, whose bursts only ever make a window slower, so the quiet
// quartile of a run's windows is what another run can reproduce. Higher-is-
// better figures take the upper quartile, lower-is-better the lower.
func quietQuantile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// summarize computes the end-to-end metrics of a checked pass. Rates,
// CPU and latency percentiles come from the pass's sub-windows through
// quietQuantile. A request that failed counts as taking the
// whole pass, slower than every answered one.
func summarize(r *runResult, v verdict) e2e {
	n := len(r.outs)
	var rps, cpu, p50, p90, p99 []float64
	for _, w := range r.windows() {
		rps = append(rps, w.rps)
		cpu = append(cpu, w.cpuUsPerReq)
		p50 = append(p50, w.p50Ms)
		p90 = append(p90, w.p90Ms)
		p99 = append(p99, w.p99Ms)
	}
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	return e2e{samples: n, values: map[string]float64{
		"setup_s":        quantile(setup, 0.5),
		"rps":            quietQuantile(rps, true),
		"p50_ms":         quietQuantile(p50, false),
		"p90_ms":         quietQuantile(p90, false),
		"p99_ms":         quietQuantile(p99, false),
		"ok_frac":        float64(v.ok) / float64(max(n, 1)),
		"full_frac":      float64(v.full) / float64(max(n, 1)),
		"cpu_us_per_req": quietQuantile(cpu, false),
		"rss_peak_mb":    r.rssMB,
	}}
}

// window is one sub-window of a measured pass.
type window struct {
	from, to            time.Duration
	answered            int64
	rps                 float64
	cpuUsPerReq         float64
	p50Ms, p90Ms, p99Ms float64
	samples             int // latencies behind the percentiles
}

// windows splits the measured pass every windowRequests answers. A
// short tail joins the last sub-window.
func (r *runResult) windows() []window {
	cuts := r.samples
	if k := len(cuts); k > 2 && cuts[k-1].done-cuts[k-2].done < windowRequests/2 {
		cuts = append(append([]windowSample(nil), cuts[:k-2]...), cuts[k-1])
	}
	var out []window
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		w := window{from: a.at, to: b.at, answered: b.done - a.done}
		if w.answered <= 0 || b.at <= a.at {
			continue
		}
		var cpu float64
		for j := range b.cpu {
			cpu += b.cpu[j] - a.cpu[j]
		}
		lat := make([]float64, 0, w.answered)
		for _, o := range r.outs[a.done:min(b.done, int64(len(r.outs)))] {
			ms := float64(o.end-o.start) / float64(time.Millisecond)
			if o.err != nil || o.status != 200 {
				ms = float64(r.elapsed) / float64(time.Millisecond)
			}
			lat = append(lat, ms)
		}
		w.rps = float64(w.answered) / (b.at - a.at).Seconds()
		w.cpuUsPerReq = cpu * 1e6 / float64(w.answered)
		w.p50Ms, w.p90Ms, w.p99Ms = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
		w.samples = len(lat)
		out = append(out, w)
	}
	return out
}

// asMetrics pairs values with the units of the given table.
func asMetrics(table []struct{ name, unit string }, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(table))
	for _, m := range table {
		out[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return out
}
