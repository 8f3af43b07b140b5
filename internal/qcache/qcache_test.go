package qcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keysInShard returns n distinct keys that all hash to the same shard, so
// LRU-order tests are immune to the hash partitioning.
func keysInShard(c *Cache, n int) []string {
	want := -1
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := c.shardIndex(k)
		if want == -1 {
			want = s
		}
		if s == want {
			out = append(out, k)
		}
	}
	return out
}

// errAbsent is the compute lookup hands Do: it runs only on a miss, and an
// error is never stored, so a lookup reads the cache without filling it.
var errAbsent = errors.New("absent")

// lookup reads key through Do, the one way the mediator reads the cache.
func lookup(c *Cache, key string) (any, bool) {
	v, out, _ := c.Do(key, func() (any, error) { return nil, errAbsent })
	return v, out == Hit
}

// store fills key through Do: the miss computes v, and Do stores it.
func store(c *Cache, key string, v any) {
	c.Do(key, func() (any, error) { return v, nil })
}

func TestShardDistribution(t *testing.T) {
	c := New(4096, 0)
	tests := []struct {
		name string
		keys int
		// minShards is the minimum number of distinct shards the keys must
		// spread over (probabilistic bound, astronomically safe at these
		// sizes for any uniform hash).
		minShards int
	}{
		{"few keys land somewhere", 4, 1},
		{"many keys spread", 256, 8},
		{"all shards used eventually", 4096, ShardCount},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			used := map[int]bool{}
			for i := 0; i < tt.keys; i++ {
				k := fmt.Sprintf("%s-%d", tt.name, i)
				s := c.shardIndex(k)
				if s < 0 || s >= ShardCount {
					t.Fatalf("shardIndex(%q) = %d out of range", k, s)
				}
				if again := c.shardIndex(k); again != s {
					t.Fatalf("shardIndex(%q) unstable: %d then %d", k, s, again)
				}
				used[s] = true
			}
			if len(used) < tt.minShards {
				t.Errorf("%d keys used %d shards, want >= %d", tt.keys, len(used), tt.minShards)
			}
		})
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	tests := []struct {
		name    string
		perCap  int // per-shard capacity (capacity = perCap * ShardCount)
		insert  int
		touch   []int // indices looked up (hits) before the overflowing insert
		evicted []int // indices that must be gone afterwards
		kept    []int // indices that must survive
	}{
		{
			name:   "oldest evicted first",
			perCap: 3, insert: 4,
			evicted: []int{0}, kept: []int{1, 2, 3},
		},
		{
			name:   "Get refreshes recency",
			perCap: 3, insert: 4, touch: []int{0},
			evicted: []int{1}, kept: []int{0, 2, 3},
		},
		{
			name:   "overwrite refreshes recency",
			perCap: 2, insert: 3, touch: []int{0},
			evicted: []int{1}, kept: []int{0, 2},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(tt.perCap*ShardCount, 0)
			keys := keysInShard(c, tt.insert)
			for i := 0; i < tt.perCap; i++ {
				store(c, keys[i], i)
			}
			for _, i := range tt.touch {
				if _, ok := lookup(c, keys[i]); !ok {
					t.Fatalf("key %d missing before the overflowing insert", i)
				}
			}
			for i := tt.perCap; i < tt.insert; i++ {
				store(c, keys[i], i)
			}
			for _, i := range tt.evicted {
				if _, ok := lookup(c, keys[i]); ok {
					t.Errorf("key %d should have been evicted", i)
				}
			}
			for _, i := range tt.kept {
				if v, ok := lookup(c, keys[i]); !ok || v.(int) != i {
					t.Errorf("key %d should have survived with value %d, got %v %v", i, i, v, ok)
				}
			}
			if got := c.Counters().Evictions; got != int64(tt.insert-tt.perCap) {
				t.Errorf("evictions = %d, want %d", got, tt.insert-tt.perCap)
			}
		})
	}
}

func TestTTLExpiry(t *testing.T) {
	tests := []struct {
		name    string
		ttl     time.Duration
		advance time.Duration
		alive   bool
	}{
		{"fresh entry survives", time.Minute, 30 * time.Second, true},
		{"entry at exactly ttl expires", time.Minute, time.Minute, false},
		{"entry past ttl expires", time.Minute, 2 * time.Minute, false},
		{"zero ttl never expires", 0, 24 * time.Hour, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(64, tt.ttl)
			now := time.Unix(1_000_000, 0)
			c.now = func() time.Time { return now }
			store(c, "k", "v")
			now = now.Add(tt.advance)
			_, ok := lookup(c, "k")
			if ok != tt.alive {
				t.Fatalf("after %v with ttl %v: alive=%v, want %v", tt.advance, tt.ttl, ok, tt.alive)
			}
			if !tt.alive {
				if exp := c.Counters().Expired; exp != 1 {
					t.Errorf("expired counter = %d, want 1", exp)
				}
				if c.Len() != 0 {
					t.Errorf("expired entry still resident: Len=%d", c.Len())
				}
			}
		})
	}
}

func TestSingleflightCollapse(t *testing.T) {
	tests := []struct {
		name       string
		goroutines int
	}{
		{"two callers", 2},
		{"herd of 32", 32},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(64, 0)
			var computes atomic.Int64
			release := make(chan struct{})
			started := make(chan struct{})
			var once sync.Once

			var wg sync.WaitGroup
			outcomes := make([]Outcome, tt.goroutines)
			values := make([]any, tt.goroutines)
			for i := 0; i < tt.goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, out, err := c.Do("hot", func() (any, error) {
						once.Do(func() { close(started) })
						<-release // hold every concurrent caller at the door
						computes.Add(1)
						return "answer", nil
					})
					if err != nil {
						t.Error(err)
					}
					outcomes[i], values[i] = out, v
				}(i)
			}
			<-started
			// Give the rest of the herd time to reach Do and block.
			time.Sleep(10 * time.Millisecond)
			close(release)
			wg.Wait()

			if n := computes.Load(); n != 1 {
				t.Fatalf("compute ran %d times, want 1", n)
			}
			misses, shareds := 0, 0
			for i := range outcomes {
				if values[i] != "answer" {
					t.Fatalf("caller %d got %v", i, values[i])
				}
				switch outcomes[i] {
				case Miss:
					misses++
				case Shared:
					shareds++
				}
			}
			if misses != 1 {
				t.Errorf("%d Miss outcomes, want exactly 1 (got %d Shared)", misses, shareds)
			}
			// A later call is a plain hit.
			if _, out, _ := c.Do("hot", func() (any, error) { return nil, errors.New("must not run") }); out != Hit {
				t.Errorf("follow-up outcome = %v, want Hit", out)
			}
		})
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(64, 0)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	ran := false
	v, out, err := c.Do("k", func() (any, error) { ran = true; return 7, nil })
	if err != nil || !ran || out != Miss || v.(int) != 7 {
		t.Fatalf("retry after error: v=%v out=%v err=%v ran=%v", v, out, err, ran)
	}
}

// TestDoPanicDoesNotWedgeKey: a panicking compute must unregister its
// in-flight entry (so the key stays computable) and fail any collapsed
// waiters instead of blocking them forever.
func TestDoPanicDoesNotWedgeKey(t *testing.T) {
	c := New(64, 0)
	inCompute := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do("k", func() (any, error) {
			close(inCompute)
			<-release
			panic("compute exploded")
		})
	}()
	<-inCompute
	go func() {
		_, _, err := c.Do("k", func() (any, error) { return "unreachable", nil })
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter collapse onto the panicking call
	close(release)
	select {
	case err := <-waiterDone:
		// Overwhelmingly the waiter collapsed onto the panicked call and
		// must see its error; in the rare schedule where it arrived after
		// cleanup it computed fresh with a nil error — both prove no wedge.
		_ = err
	case <-time.After(2 * time.Second):
		t.Fatal("collapsed waiter wedged after compute panicked")
	}
	// The key must be computable again.
	v, out, err := c.Do("k", func() (any, error) { return "recovered", nil })
	if err != nil || out != Miss || v != "recovered" {
		t.Fatalf("key wedged after panic: v=%v out=%v err=%v", v, out, err)
	}
}

func TestCapacityRoundsUpNotDown(t *testing.T) {
	// Requesting less than one entry per shard must still admit at least
	// the requested number of entries (never silently shrink to zero).
	c := New(8, 0)
	keys := keysInShard(c, 2)
	store(c, keys[0], 1)
	store(c, keys[1], 2) // same shard, perCap 1: evicts keys[0]
	if _, ok := lookup(c, keys[1]); !ok {
		t.Fatal("second insert evicted itself")
	}
	if c.Counters().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Counters().Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(64, 0)
	store(c, "a", 1)
	store(c, "b", 2)
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("Len=%d after Invalidate, want 0", c.Len())
	}
	if _, ok := lookup(c, "a"); ok {
		t.Fatal("entry survived Invalidate")
	}
}

// TestInvalidateFencesInflight: a compute that started before Invalidate
// must not store its (stale) result afterwards.
func TestInvalidateFencesInflight(t *testing.T) {
	c := New(64, 0)
	inCompute := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", func() (any, error) {
			close(inCompute)
			<-release
			return "stale", nil
		})
	}()
	<-inCompute
	c.Invalidate()
	close(release)
	<-done
	if _, ok := lookup(c, "k"); ok {
		t.Fatal("stale in-flight result was stored across Invalidate")
	}
}

// TestInvalidateFencesSharing: a waiter that arrives AFTER Invalidate must
// not join an in-flight call that started before it — the old call's result
// was computed over the old source set. The waiter has to recompute under
// the new generation. (Regression: the generation fence used to stop only
// the store, not the share.)
func TestInvalidateFencesSharing(t *testing.T) {
	c := New(64, 0)
	inCompute := make(chan struct{})
	release := make(chan struct{})
	staleDone := make(chan struct{})
	go func() {
		defer close(staleDone)
		c.Do("k", func() (any, error) {
			close(inCompute)
			<-release
			return "stale", nil
		})
	}()
	<-inCompute
	c.Invalidate()

	type res struct {
		v   any
		out Outcome
		err error
	}
	joined := make(chan res, 1)
	go func() {
		v, out, err := c.Do("k", func() (any, error) { return "fresh", nil })
		joined <- res{v, out, err}
	}()
	var r res
	select {
	case r = <-joined:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("post-invalidation waiter blocked on the pre-invalidation in-flight call")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.v != "fresh" || r.out == Shared {
		t.Fatalf("post-invalidation waiter got %v (outcome %v), want a fresh recompute", r.v, r.out)
	}

	close(release)
	<-staleDone
	// The fresh result must be the one stored; the stale call must neither
	// store its value nor evict its successor's inflight bookkeeping.
	if v, ok := lookup(c, "k"); !ok || v != "fresh" {
		t.Fatalf("cached value after both calls finished: %v (ok=%v), want fresh", v, ok)
	}
	// Later callers under the same generation share/hit normally.
	if v, out, err := c.Do("k", func() (any, error) { return "recomputed", nil }); err != nil || v != "fresh" || out != Hit {
		t.Fatalf("follow-up Do: %v %v %v, want cached fresh hit", v, out, err)
	}
}

func TestCountersAndLen(t *testing.T) {
	c := New(64, 0)
	store(c, "a", 1)  // miss, computed and stored
	lookup(c, "a")    // hit
	lookup(c, "nope") // miss, the error not stored
	got := c.Counters()
	if got.Hits != 1 || got.Misses != 2 || got.Entries != 1 {
		t.Fatalf("counters = %+v, want 1 hit, 2 misses, 1 entry", got)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(128, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%37)
				switch i % 4 {
				case 0:
					store(c, k, i)
				case 1:
					lookup(c, k)
				case 2:
					c.Do(k, func() (any, error) { return i, nil })
				case 3:
					if i%100 == 3 {
						c.Invalidate()
					}
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	c.Counters() // must not race
}

// --- tag-scoped invalidation -------------------------------------------------

func TestInvalidateTagsSelective(t *testing.T) {
	c := New(64, 0)
	mustDo := func(key string, tags []string, v any) {
		t.Helper()
		if _, _, err := c.DoTagged(key, tags, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustDo("gene-q", []string{"Gene"}, 1)
	mustDo("anno-q", []string{"Annotation"}, 2)
	mustDo("both-q", []string{"Gene", "Annotation"}, 3)
	mustDo("wild-q", []string{"*"}, 4)
	mustDo("plan", nil, 5)

	dropped := c.InvalidateTags([]string{"Annotation"})
	if dropped != 3 {
		t.Fatalf("dropped %d entries, want 3 (anno-q, both-q, wild-q)", dropped)
	}
	if _, ok := lookup(c, "gene-q"); !ok {
		t.Error("Gene-tagged entry dropped by an Annotation invalidation")
	}
	if _, ok := lookup(c, "plan"); !ok {
		t.Error("untagged entry dropped by a selective invalidation")
	}
	for _, key := range []string{"anno-q", "both-q", "wild-q"} {
		if _, ok := lookup(c, key); ok {
			t.Errorf("%s survived an intersecting invalidation", key)
		}
	}
	// Wildcard invalidation drops every tagged entry, not the untagged one.
	mustDo("gene-q2", []string{"Gene"}, 6)
	if dropped := c.InvalidateTags([]string{"*"}); dropped != 2 {
		t.Fatalf("wildcard dropped %d, want 2 (gene-q and gene-q2)", dropped)
	}
	if _, ok := lookup(c, "plan"); !ok {
		t.Error("untagged entry dropped by wildcard invalidation")
	}
}

func TestInvalidateTagsEmptyIsNoop(t *testing.T) {
	c := New(16, 0)
	store(c, "k", 1)
	if n := c.InvalidateTags(nil); n != 0 {
		t.Fatalf("nil tags dropped %d entries", n)
	}
	if _, ok := lookup(c, "k"); !ok {
		t.Fatal("entry lost to a no-op invalidation")
	}
}

// TestInvalidateTagsFencesInflight: a compute in flight when an
// intersecting InvalidateTags lands must not store its result; a
// non-intersecting compute must store normally.
func TestInvalidateTagsFencesInflight(t *testing.T) {
	c := New(64, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := c.DoTagged("slow", []string{"Gene"}, func() (any, error) {
			close(started)
			<-release
			return "stale", nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	if n := c.InvalidateTags([]string{"Gene"}); n != 0 {
		t.Fatalf("dropped %d stored entries, want 0 (only an in-flight call)", n)
	}
	close(release)
	<-done
	if _, ok := lookup(c, "slow"); ok {
		t.Fatal("fenced in-flight compute stored its result")
	}
	// A fresh compute after the fence stores fine.
	if _, out, err := c.DoTagged("slow", []string{"Gene"}, func() (any, error) { return "fresh", nil }); err != nil || out != Miss {
		t.Fatalf("recompute: outcome=%v err=%v", out, err)
	}
	if v, ok := lookup(c, "slow"); !ok || v != "fresh" {
		t.Fatalf("post-fence compute not stored: %v %v", v, ok)
	}
}

// TestDefaultShardCount: the shard count follows the machine's parallelism
// as a bounded power of two, never below the historical 16.
func TestDefaultShardCount(t *testing.T) {
	cases := []struct{ parallelism, want int }{
		{1, 16}, {4, 16}, {16, 16}, {17, 32}, {24, 32}, {64, 64}, {100, 128}, {1000, 256},
	}
	for _, c := range cases {
		if got := defaultShardCount(c.parallelism); got != c.want {
			t.Errorf("defaultShardCount(%d) = %d, want %d", c.parallelism, got, c.want)
		}
	}
	if ShardCount&(ShardCount-1) != 0 || ShardCount < 16 || ShardCount > 256 {
		t.Errorf("ShardCount = %d: not a bounded power of two", ShardCount)
	}
}

// TestInvalidateTagsFencesInflightAtWatchCadence replays the change-feed
// publication pattern: a publisher bumps the epoch, invalidates the
// touched concept tag, then notifies subscribers; readers that saw the
// notification and re-query through DoTagged must never be served a value
// computed against an older epoch — neither a stale stored entry nor a
// stale in-flight compute that the fence should have kept out of the
// cache. Run under -race.
func TestInvalidateTagsFencesInflightAtWatchCadence(t *testing.T) {
	c := New(256, 0)
	var currentEpoch, notifiedEpoch atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			e := currentEpoch.Add(1)
			c.InvalidateTags([]string{"Gene"})
			notifiedEpoch.Store(e)
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := notifiedEpoch.Load()
				v, _, err := c.DoTagged("watched", []string{"Gene"}, func() (any, error) {
					return currentEpoch.Load(), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if got := v.(int64); got < n {
					t.Errorf("stale epoch served after invalidation: got %d, notified %d", got, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
