package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"stitchroute/internal/core"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
)

// cacheKey content-addresses a routing job: the hash covers the canonical
// nlio circuit hash of the (post-placement) circuit plus the full config
// fingerprint, so two requests collide exactly when re-routing would
// reproduce the same result. The framework is deterministic for a fixed
// (circuit, config), which is what makes result caching sound — the
// correctness harness (internal/harness) tests that determinism directly.
func cacheKey(c *netlist.Circuit, cfg core.Config) (string, error) {
	ch, err := nlio.CircuitHash(c)
	if err != nil {
		return "", err
	}
	// Config is plain value data (bools, ints, floats, enums), so the
	// %+v rendering is a deterministic fingerprint.
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|cfg=%+v", ch, cfg)))
	return hex.EncodeToString(h[:]), nil
}

// resultCache is a bounded LRU of routing results keyed by cacheKey.
// Results are immutable once stored; the cache hands out shared pointers.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     int64
	misses   int64
}

type cacheEntry struct {
	key string
	res *core.Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached result for key, updating recency and the
// hit/miss counters.
func (c *resultCache) get(key string) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).res, true
	}
	c.misses++
	return nil, false
}

// put stores the result, evicting the least recently used entry when the
// cache is over capacity.
func (c *resultCache) put(key string, res *core.Result) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// stats returns the counters and current entry count.
func (c *resultCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
