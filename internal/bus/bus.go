// Package bus implements the sharded subscriber fan-out bus behind the
// server's SUBSCRIBE command.
//
// The paper's workload is continuously moving objects, so the live feed is
// a product surface in its own right: ingest must not slow down because
// thousands of consumers watch it. Publishing is therefore designed so the
// hot path holds no global lock and does no work for uninterested
// subscribers: a subscriber following one object registers on the shard
// that object's ID hashes to, wildcard and geofence subscribers are
// mirrored to every shard, and each shard keeps a copy-on-write view
// (object ID → subscribers, plus the mirrored wildcard list) that Publish
// reads through an atomic pointer without locking. All per-subscriber work
// — geofence matching, per-object compression, ring insertion — happens
// under that subscriber's own mutex, so one publish costs O(subscribers
// interested in the object); ingest throughput stays flat as unrelated
// subscribers accumulate (BenchmarkPublishScaling pins this to 10k).
//
// Each subscriber owns a fixed-capacity ring of formatted protocol lines
// and a slow-consumer Policy deciding what a full ring means: drop-newest
// (drop the incoming line — the bus's historical behaviour), drop-oldest
// (overwrite the oldest buffered line, converging on the freshest
// positions), or disconnect (end the feed). The consumer drains the ring
// in batches (Drain), so a burst of updates costs its connection one
// write+flush instead of one per line.
package bus

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// Policy selects what Publish does with a subscriber whose ring is full.
type Policy uint8

const (
	// DropNewest drops the incoming update and keeps the buffered backlog.
	DropNewest Policy = iota
	// DropOldest overwrites the oldest buffered update with the incoming
	// one, so a lagging consumer always converges on the newest positions.
	DropOldest
	// Disconnect ends the feed: the consumer drains what is already
	// buffered and then sees end-of-feed.
	Disconnect

	// NumPolicies sizes per-policy instrument arrays.
	NumPolicies = 3
)

// String names the policy as it appears on the wire and in metric labels.
func (p Policy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	case Disconnect:
		return "disconnect"
	}
	return fmt.Sprintf("policy-%d", uint8(p))
}

// ParsePolicy recognizes a wire policy name.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "drop-newest":
		return DropNewest, true
	case "drop-oldest":
		return DropOldest, true
	case "disconnect":
		return Disconnect, true
	}
	return 0, false
}

// defaultCapacity is the ring size when neither the bus options nor the
// subscription specify one — matching the buffered channel the bus
// replaced.
const defaultCapacity = 256

// Options configures a Bus. The metric hooks are optional (nil = not
// counted); the server wires its registry's instruments through them.
type Options struct {
	// Shards is the number of object-ID hash shards, rounded up to a power
	// of two; 0 selects 16.
	Shards int
	// DefaultCapacity is the ring capacity for subscriptions that do not
	// set one; 0 selects 256.
	DefaultCapacity int

	// Active tracks the number of registered subscribers.
	Active *metrics.Gauge
	// DropsTotal counts every overflow event regardless of policy.
	DropsTotal *metrics.Counter
	// PolicyDrops counts overflow events per policy, indexed by Policy.
	PolicyDrops [NumPolicies]*metrics.Counter
}

// shardView is one shard's immutable subscriber snapshot. Publish loads it
// through an atomic pointer, so registration churn never blocks fan-out.
type shardView struct {
	byID map[string][]*Subscriber // keyed subscribers, by followed object
	wild []*Subscriber            // "*" and geofence subscribers (mirrored)
}

type shard struct {
	mu   sync.Mutex
	subs map[*Subscriber]struct{}
	view atomic.Pointer[shardView]
}

// rebuild recomputes the shard's copy-on-write view; callers hold sh.mu.
func (sh *shard) rebuild() {
	v := &shardView{byID: make(map[string][]*Subscriber)}
	for sub := range sh.subs {
		if sub.id == "*" {
			v.wild = append(v.wild, sub)
		} else {
			v.byID[sub.id] = append(v.byID[sub.id], sub)
		}
	}
	sh.view.Store(v)
}

// Bus fans published positions out to subscribers, sharded by object ID.
type Bus struct {
	opts   Options
	mask   uint32
	shards []shard

	// all tracks every registered subscriber exactly once (wildcards appear
	// in many shards); it backs the Active gauge, CloseAll and
	// ReleaseCompressors, and is never touched by Publish.
	allMu sync.Mutex
	all   map[*Subscriber]struct{}
}

// New returns a bus with the given options.
func New(opts Options) *Bus {
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	size := 1
	for size < n {
		size <<= 1
	}
	if opts.DefaultCapacity <= 0 {
		opts.DefaultCapacity = defaultCapacity
	}
	b := &Bus{
		opts:   opts,
		mask:   uint32(size - 1),
		shards: make([]shard, size),
		all:    make(map[*Subscriber]struct{}),
	}
	for i := range b.shards {
		b.shards[i].subs = make(map[*Subscriber]struct{})
	}
	return b
}

// fnv1a is the 32-bit FNV-1a hash of id (the store uses the same function
// for its shards), computed inline to keep Publish allocation-free.
func fnv1a(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// SubOptions describes one subscription.
type SubOptions struct {
	// ID is the object to follow, or "*" for every object.
	ID string
	// Box, when non-nil, is a geofence: only positions inside it are
	// delivered (implies following every object; ID is ignored).
	Box *geo.Rect
	// Policy selects the slow-consumer behaviour; the zero value is
	// DropNewest.
	Policy Policy
	// Capacity is the ring size; 0 selects the bus default.
	Capacity int
	// NewComp, when non-nil, compresses the feed: each object this
	// subscriber sees gets its own compressor and only retained points are
	// delivered.
	NewComp func() stream.Compressor
}

// Subscriber is one live feed: a fixed-capacity ring of formatted lines
// filled by Publish and drained in batches by the owning connection.
type Subscriber struct {
	// Immutable after Subscribe.
	id      string
	box     *geo.Rect
	policy  Policy
	newComp func() stream.Compressor

	mu     sync.Mutex
	cond   sync.Cond // signalled when the ring goes non-empty or the feed closes
	ring   []string
	head   int // index of the oldest buffered line
	n      int // buffered line count
	closed bool
	comps  map[string]stream.Compressor // per-object feed compressors
}

// Subscribe registers a new feed and returns its subscriber.
func (b *Bus) Subscribe(o SubOptions) *Subscriber {
	capacity := o.Capacity
	if capacity <= 0 {
		capacity = b.opts.DefaultCapacity
	}
	sub := &Subscriber{
		id:      o.ID,
		box:     o.Box,
		policy:  o.Policy,
		newComp: o.NewComp,
		ring:    make([]string, capacity),
	}
	sub.cond.L = &sub.mu
	if o.Box != nil {
		sub.id = "*" // a geofence watches every object
	}
	if sub.newComp != nil {
		sub.comps = make(map[string]stream.Compressor)
	}

	b.allMu.Lock()
	b.all[sub] = struct{}{}
	b.allMu.Unlock()
	if b.opts.Active != nil {
		b.opts.Active.Inc()
	}
	for _, sh := range b.homes(sub) {
		sh.mu.Lock()
		sh.subs[sub] = struct{}{}
		sh.rebuild()
		sh.mu.Unlock()
	}
	return sub
}

// homes returns the shards a subscriber registers on: one for a keyed
// subscription, every shard for wildcards and geofences.
func (b *Bus) homes(sub *Subscriber) []*shard {
	if sub.id != "*" {
		return []*shard{&b.shards[fnv1a(sub.id)&b.mask]}
	}
	out := make([]*shard, len(b.shards))
	for i := range b.shards {
		out[i] = &b.shards[i]
	}
	return out
}

// Unsubscribe removes the feed and closes it; the consumer's Drain returns
// any remaining buffered lines and then reports the feed over. Idempotent,
// and safe to call concurrently with Publish.
func (b *Bus) Unsubscribe(sub *Subscriber) {
	b.allMu.Lock()
	_, registered := b.all[sub]
	delete(b.all, sub)
	b.allMu.Unlock()
	if !registered {
		return
	}
	if b.opts.Active != nil {
		b.opts.Active.Dec()
	}
	for _, sh := range b.homes(sub) {
		sh.mu.Lock()
		delete(sh.subs, sub)
		sh.rebuild()
		sh.mu.Unlock()
	}
	sub.close()
}

// CloseAll closes every feed (consumers drain their backlog and then see
// end-of-feed) and empties the registry — the server's Shutdown path.
func (b *Bus) CloseAll() {
	b.allMu.Lock()
	subs := make([]*Subscriber, 0, len(b.all))
	for sub := range b.all {
		subs = append(subs, sub)
	}
	b.allMu.Unlock()
	for _, sub := range subs {
		b.Unsubscribe(sub)
	}
}

// ReleaseCompressors drops per-object compressor state for every object the
// keep predicate rejects, across all subscribers. The server calls this
// after EVICT/SEAL removes objects, so a wildcard subscriber with a
// compression spec does not accumulate compressors for a churning fleet.
func (b *Bus) ReleaseCompressors(keep func(id string) bool) {
	b.allMu.Lock()
	subs := make([]*Subscriber, 0, len(b.all))
	for sub := range b.all {
		subs = append(subs, sub)
	}
	b.allMu.Unlock()
	for _, sub := range subs {
		sub.mu.Lock()
		for id := range sub.comps {
			if !keep(id) {
				delete(sub.comps, id)
			}
		}
		sub.mu.Unlock()
	}
}

// Publish fans one accepted observation out to the subscribers interested
// in it. It takes no bus-wide or shard lock: the shard's subscriber view is
// read atomically, and all mutation happens under each subscriber's own
// mutex, so per-subscriber compression and ring insertion never serialize
// ingest against unrelated feeds.
func (b *Bus) Publish(id string, s trajectory.Sample) {
	v := b.shards[fnv1a(id)&b.mask].view.Load()
	if v == nil {
		return
	}
	line := "" // formatted once, shared by every plain-relay subscriber
	for _, sub := range v.byID[id] {
		sub.deliver(id, s, &line, b)
	}
	for _, sub := range v.wild {
		sub.deliver(id, s, &line, b)
	}
}

// deliver pushes one observation into this subscriber's feed: geofence
// filter, optional per-object compression, then the ring. shared caches the
// plain-relay line across subscribers of one Publish call.
func (sub *Subscriber) deliver(id string, s trajectory.Sample, shared *string, b *Bus) {
	if sub.box != nil && !sub.box.Contains(geo.Pt(s.X, s.Y)) {
		return
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	if sub.newComp == nil {
		if *shared == "" {
			*shared = PosLine(id, s)
		}
		sub.offerLocked(*shared, b)
		return
	}
	c := sub.comps[id]
	if c == nil {
		c = sub.newComp()
		sub.comps[id] = c
	}
	kept, err := c.Push(s)
	if err != nil {
		// The sample broke the compressor's ordering contract (e.g. the
		// feed restarted at an older timestamp after a primary failover).
		// Reset the object's compressor and re-anchor it on this sample —
		// keeping the broken one would degrade the feed to an error on
		// every subsequent in-order push, permanently.
		c = sub.newComp()
		sub.comps[id] = c
		kept, err = c.Push(s)
		if err != nil {
			// A fresh compressor refusing its first sample is pathological;
			// relay raw rather than lose the observation.
			sub.offerLocked(PosLine(id, s), b)
			return
		}
	}
	for _, k := range kept {
		sub.offerLocked(PosLine(id, k), b)
	}
}

// offerLocked appends one line to the ring, applying the slow-consumer
// policy on overflow; callers hold sub.mu.
func (sub *Subscriber) offerLocked(line string, b *Bus) {
	if sub.closed {
		return
	}
	if sub.n == len(sub.ring) {
		b.countDrop(sub.policy)
		switch sub.policy {
		case DropNewest:
			return
		case DropOldest:
			sub.ring[sub.head] = ""
			sub.head = (sub.head + 1) % len(sub.ring)
			sub.n--
		case Disconnect:
			// End the feed: the consumer drains the backlog, then sees
			// end-of-feed and closes the connection. The incoming line is
			// lost either way — a consumer this far behind asked for a
			// hangup over staleness.
			sub.closed = true
			sub.cond.Broadcast()
			return
		}
	}
	sub.ring[(sub.head+sub.n)%len(sub.ring)] = line
	sub.n++
	if sub.n == 1 {
		sub.cond.Broadcast()
	}
}

func (b *Bus) countDrop(p Policy) {
	if b.opts.DropsTotal != nil {
		b.opts.DropsTotal.Inc()
	}
	if int(p) < len(b.opts.PolicyDrops) && b.opts.PolicyDrops[p] != nil {
		b.opts.PolicyDrops[p].Inc()
	}
}

// close ends the feed; buffered lines remain drainable.
func (sub *Subscriber) close() {
	sub.mu.Lock()
	if !sub.closed {
		sub.closed = true
		sub.cond.Broadcast()
	}
	sub.comps = nil // release compressor state promptly
	sub.mu.Unlock()
}

// Drain blocks until the ring is non-empty or the feed is over, then moves
// every buffered line into buf (reusing its capacity) in arrival order. It
// reports open=false only once the feed is closed and empty, so a closing
// feed still delivers its backlog. One Drain per write+flush is the
// coalescing contract: a burst of published updates costs the consumer one
// syscall pair, not one per line.
func (sub *Subscriber) Drain(buf []string) (lines []string, open bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for sub.n == 0 && !sub.closed {
		sub.cond.Wait()
	}
	buf = buf[:0]
	for ; sub.n > 0; sub.n-- {
		buf = append(buf, sub.ring[sub.head])
		sub.ring[sub.head] = ""
		sub.head = (sub.head + 1) % len(sub.ring)
	}
	return buf, !sub.closed || len(buf) > 0
}

// CompCount reports how many per-object compressors the subscriber holds —
// visibility for the eviction-release leak tests.
func (sub *Subscriber) CompCount() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.comps)
}

// Policy reports the subscription's slow-consumer policy.
func (sub *Subscriber) Policy() Policy { return sub.policy }

// PosLine formats the wire line for one observation: "POS <id> <t> <x> <y>"
// with the numbers as %g prints them, built in a stack buffer so the line
// itself is the only allocation.
func PosLine(id string, s trajectory.Sample) string {
	var buf [96]byte
	b := append(append(append(buf[:0], "POS "...), id...), ' ')
	b = strconv.AppendFloat(b, s.T, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, s.X, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, s.Y, 'g', -1, 64)
	return string(b)
}
