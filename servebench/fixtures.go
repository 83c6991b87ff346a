package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"gptattr/internal/attrib"
	"gptattr/internal/corpus"
	"gptattr/internal/gpt"
	"gptattr/internal/stylometry"
)

// fixtureVersion names the fixture recipe; a cached seed directory
// built by another recipe is rebuilt.
const fixtureVersion = "servebench-fixtures/v1"

// fixtureConfig sizes the inputs derived from one seed.
type fixtureConfig struct {
	Authors   int // training authors per model set
	Trees     int // forest size of every rung
	TopFeats  int // information-gain feature selection
	GPTRounds int // transformed rounds per setting for the detector's positives
	PoolSize  int // distinct never-seen sources (warm-up first)
	Hostile   int // deeply nested sources
}

// defaultFixtures sizes the source pool for a run of the given length
// with headroom for a server about twice as fast as today's.
func defaultFixtures(seconds int) fixtureConfig {
	return fixtureConfig{
		Authors:   65,
		Trees:     40,
		TopFeats:  500,
		GPTRounds: 5,
		PoolSize:  warmupRequests + fillRequests + 1500*seconds,
		Hostile:   15 * seconds,
	}
}

// fixtures is everything a run needs, derived from the seed alone:
// two model sets (A serves first; B is swapped in by routed reloads),
// a pool of distinct sources no model was trained on, and the hostile
// deeply nested sources.
type fixtures struct {
	Seed    int64
	ModelsA string
	ModelsB string
	Pool    []string
	Hostile []string
}

// modelFiles lists the degrade-ladder file names attrserve loads.
func modelFiles() []string {
	var out []string
	for _, base := range []string{"oracle", "detector"} {
		out = append(out, base+".model")
		for lvl := 1; lvl < stylometry.DegradeLevels; lvl++ {
			out = append(out, fmt.Sprintf("%s.l%d.model", base, lvl))
		}
	}
	return out
}

// subSeed derives an independent seed for one fixture part.
func subSeed(seed int64, part int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(part)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

// loadFixtures returns the seed's fixtures, training and caching the
// model sets under cacheDir/seed-<n> on first use. Sources are
// regenerated on every call: they are a pure function of the seed and
// cost well under a second, while caching them would cost tens of MB
// per seed.
func loadFixtures(cacheDir string, seed int64, cfg fixtureConfig) (*fixtures, error) {
	dir := filepath.Join(cacheDir, fmt.Sprintf("seed-%d", seed))
	if stamp, err := os.ReadFile(filepath.Join(dir, "VERSION")); err != nil || string(stamp) != fixtureStamp(cfg) {
		if err := buildModels(dir, seed, cfg); err != nil {
			return nil, err
		}
	}
	fx := &fixtures{
		Seed:    seed,
		ModelsA: filepath.Join(dir, "models-a"),
		ModelsB: filepath.Join(dir, "models-b"),
	}
	fx.Pool = sourcePool(seed, cfg.PoolSize)
	fx.Hostile = hostileSources(seed, cfg.Hostile)
	return fx, nil
}

// fixtureStamp records the recipe and the sizes that shaped the models.
func fixtureStamp(cfg fixtureConfig) string {
	return fmt.Sprintf("%s authors=%d trees=%d top=%d rounds=%d\n",
		fixtureVersion, cfg.Authors, cfg.Trees, cfg.TopFeats, cfg.GPTRounds)
}

// buildModels trains both model sets into a temporary directory and
// renames it into place, so an interrupted build never leaves a
// half-written seed directory behind.
func buildModels(dir string, seed int64, cfg fixtureConfig) error {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), ".build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for i, set := range []string{"models-a", "models-b"} {
		if err := trainModelSet(filepath.Join(tmp, set), subSeed(seed, int64(10+i)), cfg); err != nil {
			return fmt.Errorf("fixtures: %s: %w", set, err)
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "VERSION"), []byte(fixtureStamp(cfg)), 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// trainModelSet trains the oracle and detector ladders of one model
// set: the oracle on a synthetic author corpus, the detector on that
// corpus against simulated ChatGPT transformations.
func trainModelSet(dir string, seed int64, cfg fixtureConfig) error {
	human, _, err := corpus.GenerateYear(corpus.YearConfig{Year: 2017, NumAuthors: cfg.Authors, Seed: subSeed(seed, 1)})
	if err != nil {
		return err
	}
	model := gpt.NewModel(gpt.Config{Seed: subSeed(seed, 2), NumStyles: 12})
	transformed, err := corpus.GenerateTransformed(corpus.TransformedConfig{
		Year: 2017, Rounds: cfg.GPTRounds, Model: model, Seed: subSeed(seed, 3), SkipVerify: true,
	})
	if err != nil {
		return err
	}
	acfg := attrib.Config{Trees: cfg.Trees, TopFeatures: cfg.TopFeats, Seed: subSeed(seed, 4)}
	oracles, err := attrib.TrainOracleLadder(human, acfg)
	if err != nil {
		return err
	}
	detectors, err := attrib.TrainBinaryLadder(human, transformed, acfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := modelFiles()
	for lvl := 0; lvl < stylometry.DegradeLevels; lvl++ {
		var ob, db bytes.Buffer
		if err := oracles[lvl].Save(&ob); err != nil {
			return err
		}
		if err := detectors[lvl].Save(&db); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, files[lvl]), ob.Bytes(), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, files[stylometry.DegradeLevels+lvl]), db.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sourcePool renders n distinct synthetic solutions from authors no
// model was trained on (fresh profiles across all three years'
// challenges), deduplicated and shuffled by the seed.
func sourcePool(seed int64, n int) []string {
	years := []int{2017, 2018, 2019}
	perYear := n/(8*len(years)) + 2
	seen := make(map[string]bool, n)
	var pool []string
	for i, y := range years {
		c, _, err := corpus.GenerateYear(corpus.YearConfig{Year: y, NumAuthors: perYear, Seed: subSeed(seed, int64(100+i))})
		if err != nil {
			panic(err) // the years are constants above
		}
		for _, s := range c.Samples {
			if !seen[s.Source] {
				seen[s.Source] = true
				pool = append(pool, s.Source)
			}
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 200)))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

// Hostile nesting depths: deep enough that one source holds the
// serial batch loop for about fifteen milliseconds, five times a
// normal request, and narrow so every hostile source costs about the
// same. Deeper sources outgrow the CPU caches: at depth 1,700 one took
// 90-160 ms depending on what shared the machine, and hostile p99
// spread 29% across seeds.
const (
	hostileMinDepth = 580
	hostileMaxDepth = 620
)

// hostileSources renders n distinct programs made of one deeply nested
// chain of if statements.
func hostileSources(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(subSeed(seed, 300)))
	out := make([]string, n)
	for i := range out {
		out[i] = nestedIf(hostileMinDepth+rng.Intn(hostileMaxDepth-hostileMinDepth+1), fmt.Sprintf("v%d_%d", i, rng.Intn(1<<20)))
	}
	return out
}

// nestedIf renders a valid C++ program whose main body nests depth
// if statements.
func nestedIf(depth int, name string) string {
	var b strings.Builder
	b.WriteString("#include <cstdio>\n\nint main() {\n")
	fmt.Fprintf(&b, "  int %s = 0;\n  scanf(\"%%d\", &%s);\n", name, name)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "if (%s > %d) {\n", name, i)
	}
	fmt.Fprintf(&b, "%s++;\n", name)
	for i := 0; i < depth; i++ {
		b.WriteString("}\n")
	}
	fmt.Fprintf(&b, "  printf(\"%%d\\n\", %s);\n  return 0;\n}\n", name)
	return b.String()
}
