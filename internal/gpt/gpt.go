// Package gpt simulates ChatGPT's code generation and transformation
// behaviour as the paper measures it, replacing the OpenAI API (see
// DESIGN.md §1). The simulator owns a bounded repertoire of coding
// styles (the paper observes at most 12 distinct styles in transformed
// code) sampled with a Zipf-skewed distribution (the paper observes one
// label covering 77% of GCJ-2017 outputs), and rewrites code toward a
// sampled style using the verified AST transformations in the transform
// package. Two drivers mirror the paper's protocols: NCT re-transforms
// the original every round; CT feeds each output into the next round,
// with style stickiness modelling ChatGPT's tendency to make minimal
// changes to its own output (the paper's CT < NCT diversity finding).
package gpt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"gptattr/internal/codegen"
	"gptattr/internal/cppast"
	"gptattr/internal/cppprint"
	"gptattr/internal/ir"
	"gptattr/internal/style"
	"gptattr/internal/transform"
)

// Config parameterizes the simulated model.
type Config struct {
	// NumStyles bounds the style repertoire (default 12, the paper's
	// observed maximum).
	NumStyles int
	// Skew is the Zipf exponent for style sampling (default 1.3);
	// higher values concentrate probability on the head style.
	Skew float64
	// Stickiness is the probability a chained transformation keeps the
	// previous round's style (default 0.93 — the paper's CT runs stay
	// within one or two styles over 50 rounds). Only CT uses it.
	Stickiness float64
	// SelfAffinity is the probability that transforming code already
	// close to one of the model's own house styles keeps that style
	// (default 0.75). This models the minimal-rewrite behaviour Ye et
	// al. conjecture for LLM-generated code and produces the paper's
	// observation that ChatGPT-origin code yields fewer styles under
	// NCT than human-origin code.
	SelfAffinity float64
	// SelfAffinityRadius is the maximum style.Distance at which input
	// counts as "one of ours" (default 0.25).
	SelfAffinityRadius float64
	// Thoroughness is the per-pass probability that an optional
	// restyling move is applied (default 0.85); below 1.0 the model
	// sometimes leaves an axis of the input untouched, like a lazy
	// rewrite.
	Thoroughness float64
	// Seed makes the model deterministic.
	Seed int64
	// StyleSeed, when nonzero, seeds the style repertoire separately
	// from the sampling stream: two models with equal StyleSeed share
	// the same house styles (one ChatGPT observed at different times)
	// while Seed/Skew vary the usage distribution.
	StyleSeed int64
}

func (c Config) withDefaults() Config {
	if c.NumStyles <= 0 {
		c.NumStyles = 12
	}
	if c.Skew <= 0 {
		c.Skew = 1.3
	}
	if c.Stickiness <= 0 {
		c.Stickiness = 0.93
	}
	if c.Thoroughness <= 0 {
		c.Thoroughness = 0.85
	}
	if c.SelfAffinity <= 0 {
		c.SelfAffinity = 0.75
	}
	if c.SelfAffinityRadius <= 0 {
		c.SelfAffinityRadius = 0.25
	}
	return c
}

// Model is a deterministic simulated ChatGPT.
type Model struct {
	cfg     Config
	styles  []style.Profile
	weights []float64 // cumulative
	rng     *rand.Rand
}

// NewModel builds a model with its style repertoire.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	styleRng := rng
	if cfg.StyleSeed != 0 {
		styleRng = rand.New(rand.NewSource(cfg.StyleSeed))
	}
	m := &Model{cfg: cfg, rng: rng}
	for i := 0; i < cfg.NumStyles; i++ {
		p := style.Random(fmt.Sprintf("GPT-S%02d", i+1), styleRng)
		// The simulated model's house styles never use the mixed I/O
		// idiom: transformations target a single idiom.
		if p.IO == style.IOMixed {
			p.IO = style.IOStreams
		}
		m.styles = append(m.styles, p)
	}
	// Zipf-skewed cumulative weights.
	total := 0.0
	for i := range m.styles {
		total += 1 / math.Pow(float64(i+1), cfg.Skew)
	}
	cum := 0.0
	for i := range m.styles {
		cum += 1 / math.Pow(float64(i+1), cfg.Skew) / total
		m.weights = append(m.weights, cum)
	}
	return m
}

// NearestStyle detects the input's style profile and returns the
// closest house style with its distance.
func (m *Model) NearestStyle(src string) (int, float64) {
	detected := style.Detect(src)
	best, bestDist := 0, 2.0
	for i, s := range m.styles {
		if d := style.Distance(detected, s); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// SampleStyle draws a style index from the skewed distribution.
func (m *Model) SampleStyle() int {
	u := m.rng.Float64()
	for i, w := range m.weights {
		if u <= w {
			return i
		}
	}
	return len(m.weights) - 1
}

// Generate renders a solution for the challenge program in a sampled
// house style (the "ChatGPT-generated code" of the paper's pipeline).
func (m *Model) Generate(prog *ir.Program) (string, int) {
	si := m.SampleStyle()
	src := codegen.Render(prog, m.styles[si], m.rng.Int63())
	return src, si
}

// Result is one transformation outcome.
type Result struct {
	// Source is the transformed program text.
	Source string
	// StyleIndex identifies the repertoire style used.
	StyleIndex int
	// Fallback reports that verification rejected the full pipeline
	// and a safe (restyle-only) fallback was used.
	Fallback bool
}

// Transform rewrites src toward a sampled house style and verifies
// behaviour preservation on the given inputs. prevStyle >= 0 enables
// chaining stickiness. The fallback ladder degrades to progressively
// safer pipelines rather than failing: full -> no-structure -> reprint.
func (m *Model) Transform(src string, prevStyle int, inputs []string) (Result, error) {
	si := m.SampleStyle()
	switch {
	case prevStyle >= 0:
		if m.rng.Float64() < m.cfg.Stickiness {
			si = prevStyle
		}
	default:
		// Self-affinity: if the input already sits in (or near) one of
		// the house styles, the model tends to make a minimal rewrite
		// that stays there.
		if near, dist := m.NearestStyle(src); dist <= m.cfg.SelfAffinityRadius &&
			m.rng.Float64() < m.cfg.SelfAffinity {
			si = near
		}
	}
	target := m.styles[si]

	// Pass toggles drawn before attempts so retries are deterministic.
	applyIO := m.rng.Float64() < m.cfg.Thoroughness
	applyLoops := m.rng.Float64() < m.cfg.Thoroughness
	applyStructure := m.rng.Float64() < m.cfg.Thoroughness
	commentSeed := m.rng.Int63()

	type attempt struct {
		io, loops, structure bool
	}
	ladder := []attempt{
		{applyIO, applyLoops, applyStructure},
		{applyIO, false, false},
		{false, false, false},
	}
	var lastErr error
	for ai, a := range ladder {
		out, err := m.applyPipeline(src, target, a.io, a.loops, a.structure, commentSeed)
		if err != nil {
			lastErr = err
			continue
		}
		if len(inputs) > 0 {
			if err := transform.Verify(src, out, inputs); err != nil {
				lastErr = err
				continue
			}
		}
		return Result{Source: out, StyleIndex: si, Fallback: ai > 0}, nil
	}
	return Result{}, fmt.Errorf("gpt: all transformation attempts failed: %w", lastErr)
}

// applyPipeline runs one configuration of the rewrite pipeline.
func (m *Model) applyPipeline(src string, target style.Profile, io, loops, structure bool, commentSeed int64) (string, error) {
	tu, err := cppast.Parse(src)
	if err != nil {
		return "", fmt.Errorf("gpt: parse: %w", err)
	}
	transform.StripComments(tu)
	transform.Rename(tu, target.Naming)
	if io {
		if target.IO == style.IOStdio {
			transform.ConvertIO(tu, transform.ToStdio)
		} else {
			transform.ConvertIO(tu, transform.ToStreams)
		}
	}
	if loops && target.Loop == style.LoopWhile {
		transform.ForToWhile(tu)
	}
	if structure {
		switch target.Decomp {
		case style.DecompInline:
			transform.InlineVoidCalls(tu)
		default:
			nm := style.NewNamer(target.Naming, rand.New(rand.NewSource(commentSeed)))
			transform.ExtractSolve(tu, nm.Name("solvefn"))
		}
	}
	transform.SetUsingNamespace(tu, target.UsingNamespaceStd)
	transform.SetIncrementStyle(tu, target.PreIncrement)
	if target.Comments != style.CommentNone {
		transform.InjectComments(tu, target.CommentDensity,
			target.Comments == style.CommentBlock, rand.New(rand.NewSource(commentSeed)))
	}
	transform.RegenerateHeaders(tu, target.BitsHeader)
	cfg := cppprint.Config{
		IndentTabs:      target.Indent.UseTabs,
		IndentWidth:     target.Indent.Width,
		Allman:          target.Brace == style.BraceAllman,
		TightOps:        !target.SpaceAroundOps,
		TightCommas:     !target.SpaceAfterComma,
		FunctionalCasts: target.CastStyle == 1,
	}
	return cppprint.Print(tu, cfg), nil
}

// NCT applies the paper's non-chaining protocol: `rounds` independent
// transformations of the same original.
func (m *Model) NCT(src string, rounds int, inputs []string) ([]Result, error) {
	out := make([]Result, 0, rounds)
	for i := 0; i < rounds; i++ {
		r, err := m.Transform(src, -1, inputs)
		if err != nil {
			return out, fmt.Errorf("gpt: NCT round %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// fork returns a model sharing the (immutable) style repertoire and
// weights but drawing from a private RNG, so forks can run
// concurrently.
func (m *Model) fork(seed int64) *Model {
	return &Model{cfg: m.cfg, styles: m.styles, weights: m.weights, rng: rand.New(rand.NewSource(seed))}
}

// NCTParallel runs rounds of independent transformations of src on a
// bounded worker pool. Each round draws from a private RNG seeded by
// the model seed and the round index, so for a given seed the result
// set is bit-identical at any worker count — but it is a different
// (equally distributed) sample than the sequential NCT stream, which
// threads one RNG through all rounds.
func (m *Model) NCTParallel(src string, rounds int, inputs []string, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rounds {
		workers = rounds
	}
	out := make([]Result, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				round := m.fork(m.cfg.Seed + int64(i+1)*15485863)
				out[i], errs[i] = round.Transform(src, -1, inputs)
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gpt: NCT round %d: %w", i+1, err)
		}
	}
	return out, nil
}

// CT applies the chaining protocol: each round transforms the previous
// round's output.
func (m *Model) CT(src string, rounds int, inputs []string) ([]Result, error) {
	out := make([]Result, 0, rounds)
	cur := src
	prev := -1
	for i := 0; i < rounds; i++ {
		r, err := m.Transform(cur, prev, inputs)
		if err != nil {
			return out, fmt.Errorf("gpt: CT round %d: %w", i+1, err)
		}
		out = append(out, r)
		cur = r.Source
		prev = r.StyleIndex
	}
	return out, nil
}
