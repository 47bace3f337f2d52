package obs

import "sync/atomic"

// NumShards is the fan-out of the sharded counters and histograms. Four
// shards are enough to take a global counter off the contended path of a
// request-per-core server without bloating every metric: each shard is one
// cache line, and a writer picks its shard from the request ID, so two
// requests in flight on different cores rarely hit the same line.
const NumShards = 4

// shardMask folds an arbitrary key (request ID, worker index) onto a shard.
const shardMask = NumShards - 1

// padded is one cache-line-sized counter cell. The padding keeps adjacent
// shards out of each other's cache lines (64-byte lines on amd64/arm64;
// the value itself occupies the first 8 bytes).
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a sharded monotonic counter. Writers add to the shard chosen
// by their key; readers sum all shards. Loads are O(NumShards) and may
// tear across shards (each shard is itself atomic) — fine for Prometheus
// counters, which only need monotonicity per shard.
type Counter struct {
	shards [NumShards]padded
}

// Add increments the counter by delta on the shard selected by key.
func (c *Counter) Add(key uint64, delta int64) {
	c.shards[key&shardMask].v.Add(delta)
}

// Load returns the sum over all shards.
func (c *Counter) Load() int64 {
	var s int64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}

// Gauge is an atomic instantaneous value (in-flight requests, queue depth).
// Unsharded: gauges are incremented and decremented in pairs, and a sharded
// gauge would need the same shard for both ends of the pair; a single
// padded atomic is simpler and the traffic is one RMW per request edge.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a sharded fixed-bucket histogram of durations observed in
// microseconds. Buckets are stored non-cumulatively, so one observation is
// exactly two atomic adds (bucket + sum) and one for count — cumulation
// into the Prometheus le-form happens at render time. Bucket upper bounds
// are set once at construction and shared by all shards.
type Histogram struct {
	uppersUs []int64 // exclusive of the implicit +Inf bucket
	shards   [NumShards]histShard
}

// histShard keeps one shard's buckets, count, and sum. The trailing sum
// and count fields pad the variable-length bucket array's false sharing
// at a coarse level only; buckets within a shard share lines, which is
// fine — a shard has one writer at a time in the common case.
type histShard struct {
	buckets []atomic.Int64 // len(uppersUs)+1, last is the +Inf overflow
	count   padded
	sumUs   padded
}

// NewHistogram builds a histogram with the given bucket upper bounds in
// microseconds (ascending).
func NewHistogram(uppersUs []int64) *Histogram {
	h := &Histogram{uppersUs: uppersUs}
	for i := range h.shards {
		h.shards[i].buckets = make([]atomic.Int64, len(uppersUs)+1)
	}
	return h
}

// Observe records a duration (microseconds) on the shard selected by key.
func (h *Histogram) Observe(key uint64, us int64) {
	sh := &h.shards[key&shardMask]
	i := 0
	for i < len(h.uppersUs) && us > h.uppersUs[i] {
		i++
	}
	sh.buckets[i].Add(1)
	sh.count.v.Add(1)
	sh.sumUs.v.Add(us)
}

// Snapshot returns the cumulative bucket counts (le-form, one entry per
// configured bound plus +Inf), the total count, and the sum in
// microseconds, aggregated over shards. Counts may tear across shards;
// each shard is internally consistent enough for monitoring (the +Inf
// bucket always equals the count within a snapshot because both derive
// from the same per-shard reads).
func (h *Histogram) Snapshot() (cum []int64, count, sumUs int64) {
	cum = make([]int64, len(h.uppersUs)+1)
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range sh.buckets {
			cum[i] += sh.buckets[i].Load()
		}
		sumUs += sh.sumUs.v.Load()
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	count = cum[len(cum)-1]
	return cum, count, sumUs
}

// maxQuantileBuckets bounds the stack scratch of QuantileUs. The serving
// latency ladder has 13 buckets; 32 leaves room without an allocation.
const maxQuantileBuckets = 32

// QuantileUs returns a conservative estimate of the q-quantile (q in
// (0, 1)) in microseconds: the upper bound of the bucket the quantile
// falls in. It returns 0 when the histogram is empty and -1 when the
// quantile lands in the +Inf bucket (no finite bound is known). The scan
// is allocation-free, so admission checks can call it per request.
func (h *Histogram) QuantileUs(q float64) int64 {
	var scratch [maxQuantileBuckets]int64
	n := len(h.uppersUs) + 1
	if n > maxQuantileBuckets {
		n = maxQuantileBuckets
	}
	counts := scratch[:n]
	var total int64
	for s := range h.shards {
		sh := &h.shards[s]
		for i := 0; i < n; i++ {
			counts[i] += sh.buckets[i].Load()
		}
	}
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i := 0; i < len(h.uppersUs) && i < n; i++ {
		cum += counts[i]
		if cum > rank {
			return h.uppersUs[i]
		}
	}
	return -1
}
