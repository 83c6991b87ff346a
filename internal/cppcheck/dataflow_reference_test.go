package cppcheck

// The reference dataflow: the two hand-written bitset fixpoints
// (reaching definitions in reverse postorder, liveness in reverse
// block-ID order) and the two copies of the event replay (def-use
// chains over every block, uninitialized reads over the reachable
// ones) that the single solve and replay replaced. It lives only in
// tests: FuzzDataflowMatchesReference diffs the shipped engine against
// it on every input, chains, widths, summaries and diagnostics alike.

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"gptattr/internal/cppast"
)

// refReaching is the reference reaching-definitions state, with the
// same def-site numbering as the shipped engine.
type refReaching struct {
	nReal, nAll, w int

	siteEv   []int32
	eventDef []int32
	defsOf   [][]int32
	uninitID []int32

	gen, kill, in, out []uint64
}

func (r *refReaching) row(s []uint64, b *Block) []uint64 {
	return s[b.ID*r.w : (b.ID+1)*r.w]
}

// refReachingDefs clears every def of a variable once per def event
// while building gen/kill, special-cases the entry's pseudo-defs and
// sweeps the reachable blocks in reverse postorder to a fixpoint.
func refReachingDefs(fa *funcAnalysis) *refReaching {
	r := &refReaching{}
	nv := len(fa.vars)
	r.defsOf = make([][]int32, nv)
	r.eventDef = make([]int32, len(fa.events))
	for i, ev := range fa.events {
		r.eventDef[i] = -1
		if ev.kind == evDef {
			id := int32(len(r.siteEv))
			r.siteEv = append(r.siteEv, int32(i))
			r.eventDef[i] = id
			r.defsOf[ev.vid] = append(r.defsOf[ev.vid], id)
		}
	}
	r.nReal = len(r.siteEv)
	n := r.nReal
	r.uninitID = make([]int32, nv)
	for vid := range fa.vars {
		r.uninitID[vid] = -1
		if v := &fa.vars[vid]; v.Uninit && !v.Param {
			r.uninitID[vid] = int32(n)
			r.defsOf[vid] = append(r.defsOf[vid], int32(n))
			n++
		}
	}
	r.nAll = n
	r.w = max((n+63)/64, 1)
	total := len(fa.g.Blocks) * r.w
	r.gen = make([]uint64, total)
	r.kill = make([]uint64, total)
	r.in = make([]uint64, total)
	r.out = make([]uint64, total)

	for bi, b := range fa.g.Blocks {
		g := r.row(r.gen, b)
		k := r.row(r.kill, b)
		for ei := fa.evOff[bi]; ei < fa.evOff[bi+1]; ei++ {
			ev := fa.events[ei]
			if ev.kind != evDef {
				continue
			}
			for _, id := range r.defsOf[ev.vid] {
				clearBit(g, id)
				setBit(k, id)
			}
			id := r.eventDef[ei]
			setBit(g, id)
			clearBit(k, id)
		}
	}
	entryOut := r.row(r.out, fa.g.Entry)
	for vid := range fa.vars {
		if id := r.uninitID[vid]; id >= 0 {
			setBit(entryOut, id)
		}
	}
	rpo := fa.g.rpo
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == fa.g.Entry {
				continue
			}
			in := r.row(r.in, b)
			clear(in)
			for _, p := range b.Preds {
				po := r.row(r.out, p)
				for i := range in {
					in[i] |= po[i]
				}
			}
			out := r.row(r.out, b)
			g := r.row(r.gen, b)
			k := r.row(r.kill, b)
			for i := range out {
				next := (in[i] &^ k[i]) | g[i]
				if next != out[i] {
					out[i] = next
					changed = true
				}
			}
		}
	}
	return r
}

// refScanChains replays every block, in ID order, against a copy of
// its reaching set, clearing every def of a variable at each def.
func refScanChains(fa *funcAnalysis, r *refReaching, hit func(site, line int32)) {
	cur := make([]uint64, r.w)
	for _, b := range fa.g.Blocks {
		copy(cur, r.row(r.in, b))
		for ei := fa.evOff[b.ID]; ei < fa.evOff[b.ID+1]; ei++ {
			ev := fa.events[ei]
			switch ev.kind {
			case evUse:
				for _, id := range r.defsOf[ev.vid] {
					if int(id) < r.nReal && hasBit(cur, id) {
						hit(id, ev.line)
					}
				}
			case evDef:
				for _, id := range r.defsOf[ev.vid] {
					clearBit(cur, id)
				}
				setBit(cur, r.eventDef[ei])
			}
		}
	}
}

// refLiveness sweeps every block in reverse ID order to a fixpoint and
// returns the live-out rows, w words per block.
func refLiveness(fa *funcAnalysis) (w int, liveOut []uint64) {
	w = max((len(fa.vars)+63)/64, 1)
	nb := len(fa.g.Blocks)
	use := make([]uint64, nb*w)
	def := make([]uint64, nb*w)
	in := make([]uint64, nb*w)
	liveOut = make([]uint64, nb*w)
	for bi := range fa.g.Blocks {
		u := use[bi*w : (bi+1)*w]
		d := def[bi*w : (bi+1)*w]
		for ei := fa.evOff[bi]; ei < fa.evOff[bi+1]; ei++ {
			ev := fa.events[ei]
			switch ev.kind {
			case evUse:
				if !hasBit(d, ev.vid) {
					setBit(u, ev.vid)
				}
			case evDef:
				setBit(d, ev.vid)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			out := liveOut[i*w : (i+1)*w]
			clear(out)
			for _, s := range fa.g.Blocks[i].Succs {
				si := in[s.ID*w : (s.ID+1)*w]
				for wi := range out {
					out[wi] |= si[wi]
				}
			}
			bin := in[i*w : (i+1)*w]
			u := use[i*w : (i+1)*w]
			d := def[i*w : (i+1)*w]
			for wi := range bin {
				next := u[wi] | (out[wi] &^ d[wi])
				if next != bin[wi] {
					bin[wi] = next
					changed = true
				}
			}
		}
	}
	return w, liveOut
}

// freshAnalysis collects g's events into storage of its own.
func freshAnalysis(g *CFG, funcs map[string]*cppast.FuncDecl) *funcAnalysis {
	fa := &funcAnalysis{}
	fa.init(g, funcs)
	return fa
}

func refDefUseChains(g *CFG, funcs map[string]*cppast.FuncDecl) []DefUseEntry {
	fa := freshAnalysis(g, funcs)
	r := refReachingDefs(fa)
	uses := make([][]int, r.nReal)
	refScanChains(fa, r, func(site, line int32) {
		uses[site] = append(uses[site], int(line))
	})
	var out []DefUseEntry
	for id := 0; id < r.nReal; id++ {
		ev := fa.events[r.siteEv[id]]
		out = append(out, DefUseEntry{Var: fa.vars[ev.vid].Name, DefLine: int(ev.line), UseLines: uses[id]})
	}
	return out
}

func refLiveWidths(g *CFG, funcs map[string]*cppast.FuncDecl) []VarLiveWidth {
	fa := freshAnalysis(g, funcs)
	w, lo := refLiveness(fa)
	counts := make([]int, len(fa.vars))
	for bi := range fa.g.Blocks {
		for wi, word := range lo[bi*w : (bi+1)*w] {
			for word != 0 {
				if vid := wi<<6 + bits.TrailingZeros64(word); vid < len(counts) {
					counts[vid]++
				}
				word &= word - 1
			}
		}
	}
	out := make([]VarLiveWidth, 0, len(fa.vars))
	for vid := range fa.vars {
		out = append(out, VarLiveWidth{Var: fa.vars[vid].Name, Width: counts[vid]})
	}
	return out
}

// refSummary aggregates the reference chains and widths the way
// Scratch.Summary documents.
func refSummary(g *CFG, funcs map[string]*cppast.FuncDecl) DataflowSummary {
	var sum DataflowSummary
	chains := refDefUseChains(g, funcs)
	sum.Chains = len(chains)
	for _, ch := range chains {
		n := len(ch.UseLines)
		sum.ChainUses += n
		sum.MaxChainLen = max(sum.MaxChainLen, n)
		sum.ChainsAtLen[min(n, 3)]++
	}
	widths := refLiveWidths(g, funcs)
	sum.Vars = len(widths)
	for _, w := range widths {
		sum.LiveWidthSum += w.Width
		sum.MaxLiveWidth = max(sum.MaxLiveWidth, w.Width)
	}
	return sum
}

// refCheckUninitReads replays the reachable blocks in reverse
// postorder against a copy of each reaching set.
func refCheckUninitReads(fa *funcAnalysis) []Diagnostic {
	r := refReachingDefs(fa)
	reported := make([]bool, len(fa.vars))
	cur := make([]uint64, r.w)
	var out []Diagnostic
	for _, b := range fa.g.rpo {
		copy(cur, r.row(r.in, b))
		for ei := fa.evOff[b.ID]; ei < fa.evOff[b.ID+1]; ei++ {
			ev := fa.events[ei]
			switch ev.kind {
			case evUse:
				id := r.uninitID[ev.vid]
				if id >= 0 && hasBit(cur, id) && fa.valueRuleApplies(ev.vid) && !reported[ev.vid] {
					reported[ev.vid] = true
					name := fa.vars[ev.vid].Name
					out = append(out, Diagnostic{
						Rule: RuleUninitRead,
						Func: fa.g.Fn.Name,
						Line: int(ev.line),
						Var:  name,
						Msg:  fmt.Sprintf("variable %q may be read before initialization", name),
					})
				}
			case evDef:
				for _, id := range r.defsOf[ev.vid] {
					clearBit(cur, id)
				}
				setBit(cur, r.eventDef[ei])
			}
		}
	}
	return out
}

// refCheckDeadStores is checkDeadStores over the reference liveness.
func refCheckDeadStores(fa *funcAnalysis) []Diagnostic {
	w, liveOut := refLiveness(fa)
	live := make([]uint64, w)
	var out []Diagnostic
	for _, b := range fa.g.rpo {
		copy(live, liveOut[b.ID*w:(b.ID+1)*w])
		evs := fa.eventsOf(b)
		for i := len(evs) - 1; i >= 0; i-- {
			ev := evs[i]
			switch ev.kind {
			case evDef:
				if ev.plain && !hasBit(live, ev.vid) && fa.valueRuleApplies(ev.vid) {
					name := fa.vars[ev.vid].Name
					out = append(out, Diagnostic{
						Rule: RuleDeadStore,
						Func: fa.g.Fn.Name,
						Line: int(ev.line),
						Var:  name,
						Msg:  fmt.Sprintf("value stored to %q is never read", name),
					})
				}
				clearBit(live, ev.vid)
			case evUse:
				setBit(live, ev.vid)
			}
		}
	}
	return out
}

// refDiagnostics is AppendDiagnostics with the two dataflow rules on
// the reference engine; the other rules read no dataflow facts.
func refDiagnostics(g *CFG, funcs map[string]*cppast.FuncDecl) []Diagnostic {
	if g == nil || g.Unsupported {
		return nil
	}
	fa := freshAnalysis(g, funcs)
	var out []Diagnostic
	out = append(out, refCheckUninitReads(fa)...)
	out = append(out, refCheckDeadStores(fa)...)
	out = fa.checkUnreachable(out)
	out = fa.checkUnusedDecls(out)
	return fa.checkConstConds(out)
}

// FuzzDataflowMatchesReference pins the shipped dataflow engine to the
// reference on every function of every input: DefUseChains (use-line
// order included), LiveWidths, Summary and AppendDiagnostics, all on
// one Scratch reused across inputs, while the reference analyzes a
// graph of its own on fresh storage. Its seeds are FuzzBuildCFG's, the
// pathological shapes included.
func FuzzDataflowMatchesReference(f *testing.F) {
	for _, s := range cfgSeeds() {
		f.Add(s)
	}
	var ws Scratch
	f.Fuzz(func(t *testing.T, src string) {
		tu, err := cppast.Parse(src)
		if err != nil || tu == nil {
			return
		}
		funcs := make(map[string]*cppast.FuncDecl)
		for _, fn := range tu.Functions() {
			if fn.Body != nil {
				funcs[fn.Name] = fn
			}
		}
		for _, fn := range tu.Functions() {
			g, ref := ws.Build(fn), new(Scratch).Build(fn)
			if g == nil {
				continue
			}
			if got, want := ws.DefUseChains(g, funcs), refDefUseChains(ref, funcs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: DefUseChains = %+v, want %+v", fn.Name, got, want)
			}
			if got, want := ws.LiveWidths(g, funcs), refLiveWidths(ref, funcs); !slices.Equal(got, want) {
				t.Fatalf("%s: LiveWidths = %+v, want %+v", fn.Name, got, want)
			}
			if got, want := ws.Summary(g, funcs), refSummary(ref, funcs); got != want {
				t.Fatalf("%s: Summary = %+v, want %+v", fn.Name, got, want)
			}
			if got, want := ws.AppendDiagnostics(nil, g, funcs), refDiagnostics(ref, funcs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AppendDiagnostics = %v, want %v", fn.Name, got, want)
			}
		}
	})
}
