// Package qcache is a sharded, TTL-aware LRU result cache with singleflight
// deduplication, built for the mediator's hot path: the same biological
// questions (Figure 5) are asked over and over against slowly-changing
// annotation sources, so recomputing the federated fan-out per request is
// pure waste.
//
// The key space is hash-partitioned over ShardCount independently locked
// shards so concurrent queries for different keys never contend on one
// mutex. Each shard keeps an intrusive LRU list bounded at its share of
// the capacity; an
// optional TTL expires entries lazily on lookup. Do() collapses concurrent
// computations of the same key into a single call (singleflight), so a
// thundering herd of identical questions costs one federated query.
//
// Invalidate() bumps a generation counter and drops every entry; in-flight
// computations started under an older generation complete but are neither
// stored nor shared with callers that arrive after the invalidation (those
// recompute under the new generation), so a source plugged in mid-query can
// never resurrect — or hand out — a stale result.
package qcache

import (
	"container/list"
	"errors"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShardCount is the number of hash partitions, sized at init from the
// machine's parallelism: the smallest power of two >= GOMAXPROCS, floored
// at 16 (the old fixed count — below that, eviction granularity suffers
// without buying contention relief) and capped at 256 (past which shards
// stop reducing contention and only make Invalidate and Counters walk
// more mutexes). Power-of-two so the hash distributes evenly under the
// modulo.
var ShardCount = defaultShardCount(runtime.GOMAXPROCS(0))

func defaultShardCount(parallelism int) int {
	n := 16
	for n < parallelism && n < 256 {
		n <<= 1
	}
	return n
}

// DefaultCapacity bounds the cache when the caller passes capacity <= 0.
const DefaultCapacity = 256

// Outcome classifies how Do obtained its value.
type Outcome uint8

const (
	// Miss: this call ran the compute function.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Shared: another in-flight call computed the value; this call waited
	// (singleflight collapse).
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	}
	return "miss"
}

// Counters is a snapshot of the cache's cumulative activity.
type Counters struct {
	Hits          int64 // lookups answered from the cache
	Misses        int64 // lookups that ran the compute function
	Shared        int64 // lookups collapsed onto another in-flight compute
	Evictions     int64 // entries pushed out by the LRU bound
	Expired       int64 // entries dropped because their TTL lapsed
	Invalidations int64 // stored entries dropped by Invalidate/InvalidateTags
	Entries       int   // live entries right now
	InFlight      int   // singleflight computations running right now
}

// Cache is the sharded LRU. The zero value is not usable; call New.
type Cache struct {
	shards []shard
	seed   maphash.Seed
	ttl    time.Duration
	perCap int
	gen    atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	shared        atomic.Int64
	evictions     atomic.Int64
	expired       atomic.Int64
	invalidations atomic.Int64
	entries       atomic.Int64
	computing     atomic.Int64

	// now is the clock; tests swap it to drive TTL expiry deterministically.
	now func() time.Time
}

type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recent
	inflight map[string]*call
}

type entry struct {
	key     string
	value   any
	expires time.Time // zero = never
	// tags scope the entry for selective invalidation (InvalidateTags).
	// nil means untagged: the entry survives every selective invalidation
	// and falls only to full Invalidate, eviction or TTL.
	tags []string
}

type call struct {
	wg  sync.WaitGroup
	val any
	err error
	// gen is the cache generation the call started under. A prospective
	// waiter whose current generation differs must not share this call's
	// result: it was (or is being) computed over a source set that has
	// since been invalidated. The same stamp fences the store.
	gen uint64
	// tags mirror the entry tags the call will store under; InvalidateTags
	// fences intersecting in-flight calls by setting noStore (guarded by
	// the shard mutex, like the inflight map itself).
	tags    []string
	noStore bool
}

// New builds a cache bounded at roughly capacity entries total
// (DefaultCapacity when capacity <= 0). The bound is enforced per shard, so
// the effective total is capacity rounded UP to the next multiple of
// ShardCount (minimum ShardCount) — never below what was requested.
// ttl <= 0 means entries never expire by age.
func New(capacity int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perCap := (capacity + ShardCount - 1) / ShardCount
	if perCap < 1 {
		perCap = 1
	}
	c := &Cache{seed: maphash.MakeSeed(), ttl: ttl, perCap: perCap, now: obs.Now,
		shards: make([]shard, ShardCount)}
	for i := range c.shards {
		c.shards[i].entries = map[string]*list.Element{}
		c.shards[i].lru = list.New()
		c.shards[i].inflight = map[string]*call{}
	}
	return c
}

// shardIndex hash-partitions a key.
func (c *Cache) shardIndex(key string) int {
	return int(maphash.String(c.seed, key) % uint64(len(c.shards)))
}

// get looks key up, expiring it lazily, on c's clock and counters;
// sh.mu must be held.
func (sh *shard) get(c *Cache, key string) (any, bool) {
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		sh.lru.Remove(el)
		delete(sh.entries, key)
		c.expired.Add(1)
		c.entries.Add(-1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return e.value, true
}

// put stores value under key, evicting the shard's LRU tail past c's
// per-shard capacity; sh.mu must be held.
func (sh *shard) put(c *Cache, key string, value any, tags []string) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*entry)
		e.value, e.expires, e.tags = value, expires, tags
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[key] = sh.lru.PushFront(&entry{key: key, value: value, expires: expires, tags: tags})
	c.entries.Add(1)
	for sh.lru.Len() > c.perCap {
		tail := sh.lru.Back()
		sh.lru.Remove(tail)
		delete(sh.entries, tail.Value.(*entry).key)
		c.evictions.Add(1)
		c.entries.Add(-1)
	}
}

// Do returns the cached value for key, or computes it with fn exactly once
// even under concurrent callers: the first caller runs fn while the rest
// block and share its result. Errors are not cached — every Do after a
// failed compute retries.
func (c *Cache) Do(key string, fn func() (any, error)) (any, Outcome, error) {
	return c.DoTagged(key, nil, fn)
}

// DoTagged is Do with invalidation tags: a stored entry carries the tags
// and is dropped by any InvalidateTags call that intersects them. nil tags
// produce an untagged entry that only full Invalidate removes.
func (c *Cache) DoTagged(key string, tags []string, fn func() (any, error)) (any, Outcome, error) {
	sh := &c.shards[c.shardIndex(key)]
	sh.mu.Lock()
	if v, ok := sh.get(c, key); ok {
		sh.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if cl, ok := sh.inflight[key]; ok && cl.gen == c.gen.Load() {
		sh.mu.Unlock()
		c.shared.Add(1)
		cl.wg.Wait()
		return cl.val, Shared, cl.err
	}
	// No in-flight call, or only one started before an Invalidate — its
	// result must not be shared, so start a fresh compute under the current
	// generation, replacing the stale inflight entry. Waiters already
	// joined to the stale call keep it (they joined before the
	// invalidation); later callers join this one.
	cl := &call{gen: c.gen.Load(), tags: tags}
	cl.wg.Add(1)
	sh.inflight[key] = cl
	sh.mu.Unlock()

	c.misses.Add(1)
	c.computing.Add(1)
	// The bookkeeping is deferred so a panicking fn cannot wedge the key:
	// without it the inflight entry would never be removed and every later
	// caller would block forever in wg.Wait.
	defer func() {
		sh.mu.Lock()
		// A stale call that was replaced must not delete its successor.
		if sh.inflight[key] == cl {
			delete(sh.inflight, key)
		}
		// Store only when neither a full Invalidate nor a tag-intersecting
		// InvalidateTags raced with the compute: a result built over the
		// old source set must not outlive it.
		if cl.err == nil && c.gen.Load() == cl.gen && !cl.noStore {
			sh.put(c, key, cl.val, cl.tags)
		}
		sh.mu.Unlock()
		c.computing.Add(-1)
		cl.wg.Done()
	}()
	cl.err = errPanicked
	cl.val, cl.err = fn()
	return cl.val, Miss, cl.err
}

// errPanicked is what collapsed waiters observe when the computing caller
// panicked: cl.err is pre-set before fn runs and only overwritten on normal
// return, so waiters fail cleanly instead of sharing a half-built value.
var errPanicked = errors.New("qcache: compute panicked")

// InvalidateTags drops every stored entry whose tag set intersects tags
// and fences intersecting in-flight computations (their results complete
// for waiters already joined but are not stored). The wildcard tag "*" —
// on either side — intersects everything, so an entry tagged "*" falls to
// any selective invalidation and InvalidateTags([]string{"*"}) drops every
// tagged entry. Untagged entries always survive. It returns the number of
// stored entries dropped.
func (c *Cache) InvalidateTags(tags []string) int {
	if len(tags) == 0 {
		return 0
	}
	set := make(map[string]bool, len(tags))
	wild := false
	for _, t := range tags {
		if t == "*" {
			wild = true
		}
		set[t] = true
	}
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, el := range sh.entries {
			if !tagsIntersect(el.Value.(*entry).tags, set, wild) {
				continue
			}
			sh.lru.Remove(el)
			delete(sh.entries, key)
			dropped++
			c.entries.Add(-1)
		}
		for key, cl := range sh.inflight {
			if tagsIntersect(cl.tags, set, wild) {
				// Fence the call and unhook it so later callers recompute;
				// waiters already joined keep its (now doomed) result, the
				// same contract full Invalidate gives them.
				cl.noStore = true
				delete(sh.inflight, key)
			}
		}
		sh.mu.Unlock()
	}
	c.invalidations.Add(int64(dropped))
	return dropped
}

// tagsIntersect reports whether the entry tags intersect the invalidation
// set (which is wild when it contains "*"). Nil entry tags never intersect.
func tagsIntersect(entryTags []string, set map[string]bool, wild bool) bool {
	for _, t := range entryTags {
		if wild || t == "*" || set[t] {
			return true
		}
	}
	return false
}

// Invalidate drops every cached entry and fences in-flight computations so
// their results are discarded rather than stored.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.entries.Add(-int64(sh.lru.Len()))
		c.invalidations.Add(int64(sh.lru.Len()))
		sh.entries = map[string]*list.Element{}
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// Len reports the number of live entries across all shards. It reads a
// live atomic counter — no shard locks — so the cached hot path can snapshot
// Counters without serializing on the partitions it was built to avoid.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Counters snapshots the cumulative hit/miss/evict counters.
func (c *Cache) Counters() Counters {
	return Counters{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Evictions:     c.evictions.Load(),
		Expired:       c.expired.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		InFlight:      int(c.computing.Load()),
	}
}
