// Package featcache is a content-addressed cache of stylometric
// feature vectors. Keys are SHA-256 digests over a feature-extractor
// fingerprint and the source bytes (length-prefixed, so no two
// distinct (fingerprint, source) pairs collide by concatenation). The
// cache layers an in-memory LRU over an optional on-disk store, so
// chained experiment runs never re-extract unchanged files.
//
// Cache implements stylometry.FeatureCache and is safe for concurrent
// use.
package featcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// Fault-injection points on the disk layer (see internal/fault).
// Reads and writes retry injected transient errors a bounded number
// of times; a torn payload survives to disk (the rename is atomic but
// the content is short) and is caught by the corrupt-entry backstop.
const (
	PointDiskRead   = "featcache.disk.read"
	PointDiskWrite  = "featcache.disk.write"
	PointDiskTorn   = "featcache.disk.write.torn"
	PointDiskRename = "featcache.disk.rename"
)

// diskRetries and diskBackoff bound the retry-with-backoff supervisor
// around disk faults.
const (
	diskRetries = 3
	diskBackoff = time.Millisecond
)

// ExtractorFingerprint identifies the current feature-extraction
// algorithm. Bump it whenever stylometry.Extract changes the feature
// set (the semantic group included), so stale on-disk entries are
// never reused. v2 added the semantic feature group.
const ExtractorFingerprint = "caliskan-islam+semstats/v2"

// Key returns the content address of one (fingerprint, source) pair.
// Both parts are length-prefixed before hashing, so shifting bytes
// between fingerprint and source always changes the key.
func Key(fingerprint, source string) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(fingerprint)))
	h.Write(n[:])
	h.Write([]byte(fingerprint))
	binary.LittleEndian.PutUint64(n[:], uint64(len(source)))
	h.Write(n[:])
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the in-memory LRU (default 4096).
	MaxEntries int
	// Dir, when set, enables the on-disk layer under this directory.
	Dir string
	// Fingerprint is mixed into every key (default
	// ExtractorFingerprint).
	Fingerprint string
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	DiskHits  uint64
	Evictions uint64
}

// Cache is an LRU feature cache with an optional disk layer.
type Cache struct {
	opts Options

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	stats Stats
}

type entry struct {
	key string
	f   stylometry.Features
}

// New builds a cache, creating the disk directory if configured.
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	if opts.Fingerprint == "" {
		opts.Fingerprint = ExtractorFingerprint
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("featcache: %w", err)
		}
	}
	return &Cache{opts: opts, ll: list.New(), items: make(map[string]*list.Element)}, nil
}

// Get returns the cached features for a source, consulting memory then
// disk. The returned map is a private copy the caller may mutate.
func (c *Cache) Get(src string) (stylometry.Features, bool) {
	key := Key(c.opts.Fingerprint, src)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		f := el.Value.(*entry).f
		c.stats.Hits++
		c.mu.Unlock()
		return cloneFeatures(f), true
	}
	c.mu.Unlock()
	if c.opts.Dir != "" {
		if f, ok := c.loadDisk(key); ok {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			c.insertLocked(key, f)
			c.mu.Unlock()
			return cloneFeatures(f), true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the features for a source in memory and, when configured,
// on disk. The map is copied; later caller mutations do not leak in.
func (c *Cache) Put(src string, f stylometry.Features) {
	key := Key(c.opts.Fingerprint, src)
	f = cloneFeatures(f)
	c.mu.Lock()
	c.insertLocked(key, f)
	c.mu.Unlock()
	if c.opts.Dir != "" {
		c.storeDisk(key, f)
	}
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// insertLocked adds or refreshes an entry; c.mu must be held. Cached
// maps are never mutated after insertion, so concurrent readers may
// share them.
func (c *Cache) insertLocked(key string, f stylometry.Features) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).f = f
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, f: f})
	for c.ll.Len() > c.opts.MaxEntries {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
		c.stats.Evictions++
	}
}

func cloneFeatures(f stylometry.Features) stylometry.Features {
	out := make(stylometry.Features, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// diskPath shards entries by key prefix to keep directories small.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.opts.Dir, key[:2], key+".json")
}

// loadDisk reads one on-disk entry. A file that exists but does not
// decode — truncated by a crash, corrupted, or written by something
// else — is treated exactly like a miss: the bad file is deleted so
// the recomputed entry can be stored cleanly, and the caller
// re-extracts. Nothing downstream ever sees a partial entry.
func (c *Cache) loadDisk(key string) (stylometry.Features, bool) {
	path := c.diskPath(key)
	var data []byte
	err := fault.Retry(diskRetries, diskBackoff, func() error {
		if err := fault.Hit(PointDiskRead); err != nil {
			return err
		}
		var rerr error
		data, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil {
		return nil, false
	}
	var f stylometry.Features
	if err := json.Unmarshal(data, &f); err != nil {
		os.Remove(path)
		return nil, false
	}
	return f, true
}

// storeDisk writes atomically: the payload goes to a temp file that
// is fsynced before the rename, so a crash at any instant leaves
// either no entry or a complete one — never a truncated file at the
// final path. Injected transient faults are retried with backoff;
// terminal errors are swallowed, because the disk layer is an
// optimization, not a store of record (and a surviving torn payload
// is caught by the corrupt-entry delete+recompute backstop in
// loadDisk).
func (c *Cache) storeDisk(key string, f stylometry.Features) {
	data, err := json.Marshal(f)
	if err != nil {
		return
	}
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	_ = fault.Retry(diskRetries, diskBackoff, func() error {
		return writeEntry(path, data)
	})
}

// writeEntry performs one temp-file + fsync + rename attempt.
func writeEntry(path string, data []byte) error {
	if err := fault.Hit(PointDiskWrite); err != nil {
		return err
	}
	// A fired torn-write fault truncates the payload, modelling a
	// partially flushed buffer that the rename then publishes.
	data, err := fault.Data(PointDiskTorn, data)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := fault.Hit(PointDiskRename); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
