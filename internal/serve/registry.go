// Package serve is the attribution inference service: a model
// registry with lock-free lookup and hot reload, a bounded extraction
// queue served by a fixed pool of workers, and the HTTP layer that
// exposes them (POST /v1/attribute, POST /v1/detect, GET /healthz,
// GET /metrics, POST /v1/reload).
//
// The design split is: models are immutable once loaded and swapped
// whole via atomic.Pointer (readers never block, reloads never drop
// in-flight requests); feature extraction — the expensive step — runs
// one source at a time on each of a fixed number of long-lived workers
// through the shared feature cache; admission control rejects
// early (429) instead of queueing without bound, and every request
// carries a context deadline honoured end to end.
//
// Server owns the HTTP plumbing (request IDs, admission, deadlines,
// body decoding, the error envelope, metrics) and answers inference
// through a Backend: LocalBackend on a replica, or the fleet router
// (internal/fleet), which serves the same surface over N replicas.
package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gptattr/internal/attrib"
	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// PointRegistryLoad is the fault-injection point at the head of every
// model (re)load (see internal/fault). A fired fault fails the reload
// exactly like a corrupt model file would: the previous generation
// keeps serving, untouched.
const PointRegistryLoad = "serve.registry.load"

// PointRegistryCommit is the fault-injection point at the head of
// Commit, modelling a replica that staged a generation but dies (or
// errors) before flipping to it — the torn half of a two-phase fleet
// reload. A fired fault leaves both the serving generation and the
// staged generation untouched.
const PointRegistryCommit = "serve.registry.commit"

// Registry file names: NewRegistry loads these from its directory.
// Either may be absent — the corresponding endpoint then answers 503.
// The .l1/.l2 variants are the degrade-ladder fallback rungs (trained
// on nested family subsets, see attrib.TrainOracleLadder); a directory
// holding only the base files serves in legacy single-model mode, where
// degraded vectors are scored by the full model.
const (
	OracleFile   = "oracle.model"
	DetectorFile = "detector.model"
)

// ladderFile returns the model file name for a degrade-ladder rung
// (level 0 is the base file).
func ladderFile(base string, lvl stylometry.DegradeLevel) string {
	if lvl == stylometry.DegradeNone {
		return base
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.l%d%s", base[:len(base)-len(ext)], int(lvl), ext)
}

// Models is one immutable generation of loaded models. Handlers grab
// the current *Models once per request; a concurrent reload swaps the
// registry pointer but never mutates a published Models, so requests
// started under an old generation finish on it safely. The ladders are
// part of the same generation: a reload swaps all rungs atomically, so
// a degraded request can never mix a new full model with an old
// fallback.
type Models struct {
	// Oracle is the multi-author attribution model (nil if absent).
	// It is always Oracles[0].
	Oracle *attrib.Oracle
	// Detector is the ChatGPT-vs-human classifier (nil if absent).
	// It is always Detectors[0].
	Detector *attrib.Classifier
	// Oracles is the degrade-ladder: index i scores vectors degraded to
	// level i. Rungs beyond 0 may be nil (legacy single-model mode).
	Oracles [stylometry.DegradeLevels]*attrib.Oracle
	// Detectors is the detector-side ladder, same shape.
	Detectors [stylometry.DegradeLevels]*attrib.Classifier
	// Generation increments on every successful (re)load.
	Generation uint64

	// labels holds each oracle rung's answer-encoder table (nil where
	// Oracles is nil), built with the generation and freed with it.
	labels [stylometry.DegradeLevels]*labelTable
}

// OracleFor picks the rung that scores a vector degraded to lvl, and
// reports the effective degrade level of the answer. Preference order:
// the matching rung, then deeper rungs (trained on a subset of the
// vector's surviving families — still exactly what they saw in
// training, just discarding more), then shallower rungs as a last
// resort (legacy mode: the model indexes features the vector lost,
// which read as zero — usable, but the calibration no longer applies,
// which Calibration()==0 on the base model already signals). The
// effective level is the deeper of the vector's and the rung's.
func (m *Models) OracleFor(lvl stylometry.DegradeLevel) (*attrib.Oracle, stylometry.DegradeLevel) {
	i, eff := rungFor(&m.Oracles, lvl)
	if i < 0 {
		return nil, eff
	}
	return m.Oracles[i], eff
}

// DetectorFor is OracleFor for the detector ladder.
func (m *Models) DetectorFor(lvl stylometry.DegradeLevel) (*attrib.Classifier, stylometry.DegradeLevel) {
	i, eff := rungFor(&m.Detectors, lvl)
	if i < 0 {
		return nil, eff
	}
	return m.Detectors[i], eff
}

// rungFor is the ladder lookup behind OracleFor and DetectorFor: the
// index of the rung that scores lvl (-1 when the ladder is empty) and
// the answer's effective level.
func rungFor[M comparable](ladder *[stylometry.DegradeLevels]M, lvl stylometry.DegradeLevel) (int, stylometry.DegradeLevel) {
	var none M
	lvl = lvl.Clamp()
	for l := lvl; l <= stylometry.MaxDegrade; l++ {
		if ladder[l] != none {
			return int(l), l
		}
	}
	for l := lvl - 1; l >= stylometry.DegradeNone; l-- {
		if ladder[l] != none {
			return int(l), lvl
		}
	}
	return -1, lvl
}

// Registry loads serialized models from a directory and serves the
// current generation lock-free. Reloads come in two shapes: Load is
// the one-step local swap (SIGHUP, POST /v1/reload); Stage + Commit
// split the same swap into load-without-serving and atomic-publish so
// a fleet coordinator can stage a generation on every replica before
// any replica starts serving it.
type Registry struct {
	dir string
	cur atomic.Pointer[Models]
	gen atomic.Uint64
	// loadTime is how long the last successful Load or Stage took to
	// read its generation.
	loadTime atomic.Int64 // a time.Duration

	// loadMu serializes Load/Stage/Commit calls (SIGHUP and POST
	// /v1/reload can race) and guards staged; readers never take it.
	loadMu sync.Mutex
	staged *Models
}

// NewRegistry creates a registry over dir and performs the initial
// load. An empty directory is allowed — the server starts degraded and
// a later reload can supply models — but an unreadable directory or a
// corrupt model file is a hard error: refusing to start is better than
// silently serving nothing.
func NewRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir}
	if err := r.Load(); err != nil {
		return nil, err
	}
	return r, nil
}

// Current returns the live generation. The returned Models must be
// treated as read-only; it is never nil after NewRegistry succeeds.
func (r *Registry) Current() *Models {
	return r.cur.Load()
}

// Load reads the model files and atomically publishes a new
// generation. On any error the previous generation stays live — a bad
// reload never takes down a serving process. Any staged-but-uncommitted
// generation is discarded: the operator's direct reload wins.
func (r *Registry) Load() error {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()

	m, err := r.read()
	if err != nil {
		return err
	}
	m.Generation = r.gen.Add(1)
	r.staged = nil
	r.cur.Store(m)
	return nil
}

// Stage reads the model files into a pending generation without
// serving it, returning the staged generation number. A second Stage
// before Commit replaces the pending generation. The serving
// generation is untouched until Commit.
func (r *Registry) Stage() (uint64, error) {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()

	m, err := r.read()
	if err != nil {
		return 0, err
	}
	m.Generation = r.gen.Add(1)
	r.staged = m
	return m.Generation, nil
}

// Commit atomically publishes the staged generation. With nothing
// staged it fails without touching the serving generation, so a
// coordinator retrying a torn two-phase reload can always tell "this
// replica never staged" from "this replica already flipped".
func (r *Registry) Commit() (uint64, error) {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()

	if err := fault.Hit(PointRegistryCommit); err != nil {
		return 0, fmt.Errorf("serve: commit: %w", err)
	}
	if r.staged == nil {
		return 0, fmt.Errorf("serve: commit: no staged generation")
	}
	m := r.staged
	r.staged = nil
	r.cur.Store(m)
	return m.Generation, nil
}

// StagedGeneration reports the pending generation (0 = none staged).
func (r *Registry) StagedGeneration() uint64 {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()
	if r.staged == nil {
		return 0
	}
	return r.staged.Generation
}

// LoadTime reports how long the last successful Load or Stage took to
// read the model files.
func (r *Registry) LoadTime() time.Duration { return time.Duration(r.loadTime.Load()) }

// read loads the model files into an unpublished Models (generation
// unassigned) and, on success, records how long that took. Callers
// hold loadMu.
func (r *Registry) read() (*Models, error) {
	start := time.Now()
	if err := fault.Hit(PointRegistryLoad); err != nil {
		return nil, fmt.Errorf("serve: reload: %w", err)
	}
	if _, err := os.Stat(r.dir); err != nil {
		return nil, fmt.Errorf("serve: model dir: %w", err)
	}
	m := &Models{}
	var err error
	for lvl := stylometry.DegradeNone; lvl <= stylometry.MaxDegrade; lvl++ {
		if m.Oracles[lvl], err = loadRung(r.dir, OracleFile, lvl, attrib.LoadOracle); err != nil {
			return nil, err
		}
		if m.Detectors[lvl], err = loadRung(r.dir, DetectorFile, lvl, attrib.LoadClassifier); err != nil {
			return nil, err
		}
		if o := m.Oracles[lvl]; o != nil {
			m.labels[lvl] = newLabelTable(o.Labels())
		}
	}
	m.Oracle = m.Oracles[stylometry.DegradeNone]
	m.Detector = m.Detectors[stylometry.DegradeNone]
	r.loadTime.Store(int64(time.Since(start)))
	return m, nil
}

// loadRung reads one ladder rung's model file (the zero M if absent).
func loadRung[M any](dir, base string, lvl stylometry.DegradeLevel, load func(io.Reader) (M, error)) (M, error) {
	var none M
	path := filepath.Join(dir, ladderFile(base, lvl))
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return none, nil
	}
	if err != nil {
		return none, fmt.Errorf("serve: %w", err)
	}
	m, err := load(f)
	_ = f.Close()
	if err != nil {
		return none, fmt.Errorf("serve: %s: %w", path, err)
	}
	return m, nil
}
