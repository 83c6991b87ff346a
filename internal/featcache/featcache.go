// Package featcache is a content-addressed cache of stylometric
// feature vectors, held in memory in their compact immutable form
// (stylometry.Sparse). Keys are SHA-256 digests over a feature-extractor
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
	"unsafe"

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
// between fingerprint and source always changes the key. It runs on
// every request, so the hash reads the strings' bytes in place and the
// digest and its hex form stay on the stack: the key string is the one
// allocation.
func Key(fingerprint, source string) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(fingerprint)))
	h.Write(n[:])
	h.Write(stringBytes(fingerprint))
	binary.LittleEndian.PutUint64(n[:], uint64(len(source)))
	h.Write(n[:])
	h.Write(stringBytes(source))
	var sum [sha256.Size]byte
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:])
}

// stringBytes views s's bytes without copying them. Hash writes never
// modify or retain their argument (the io.Writer contract), so the
// view cannot break the string's immutability.
func stringBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
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

// Stats reports cache effectiveness counters and the in-memory
// layer's size: Entries vectors holding Bytes bytes in their own
// slices (stylometry.Sparse.Bytes; shared term-name strings are not
// counted).
type Stats struct {
	Hits      uint64
	Misses    uint64
	DiskHits  uint64
	Evictions uint64
	Entries   int
	Bytes     int64
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
	v   *stylometry.Sparse
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

// Get returns the cached vector for a source, consulting memory then
// disk. The vector is shared with the cache, not copied: a Sparse is
// immutable.
func (c *Cache) Get(src string) (*stylometry.Sparse, bool) {
	key := Key(c.opts.Fingerprint, src)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).v
		c.stats.Hits++
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	if c.opts.Dir != "" {
		if f, ok := c.loadDisk(key); ok {
			v := f.Sparse()
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			c.insertLocked(key, v)
			c.mu.Unlock()
			return v, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the vector for a source in memory and, when configured,
// on disk. A Features map is converted (a copy: later caller writes do
// not leak in); a Sparse is stored as is.
func (c *Cache) Put(src string, v stylometry.Vector) {
	key := Key(c.opts.Fingerprint, src)
	sp := v.Sparse()
	c.mu.Lock()
	c.insertLocked(key, sp)
	c.mu.Unlock()
	if c.opts.Dir != "" {
		c.storeDisk(key, sp)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// insertLocked adds or refreshes an entry and keeps the size gauges
// current; c.mu must be held.
func (c *Cache) insertLocked(key string, v *stylometry.Sparse) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		c.stats.Bytes += int64(v.Bytes() - e.v.Bytes())
		e.v = v
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, v: v})
	c.stats.Bytes += int64(v.Bytes())
	for c.ll.Len() > c.opts.MaxEntries {
		e := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.items, e.key)
		c.stats.Bytes -= int64(e.v.Bytes())
		c.stats.Evictions++
	}
	c.stats.Entries = c.ll.Len()
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
func (c *Cache) storeDisk(key string, v *stylometry.Sparse) {
	data, err := json.Marshal(v.Features())
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
