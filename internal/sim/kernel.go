// Package sim provides the discrete-event simulation kernel used by every
// subsystem of the BASH reproduction: simulated time, a deterministic event
// queue, and a forward-progress watchdog.
//
// Time is measured in integer nanoseconds. The target system in the paper is
// clocked such that one cycle is one nanosecond, so cycle counts from the
// paper (e.g. the 512-cycle sampling interval) translate directly. Almost
// every event is due a few tens of nanoseconds ahead, so the kernel keeps
// the near future in a time wheel of per-instant buckets (schedule and pop
// are O(1)) and only the rare far-future event in a heap.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp or duration in nanoseconds (= cycles).
type Time int64

// Common durations from the paper's timing model (Section 4.2).
const (
	// NetworkTraversal is the fixed latency of one interconnect crossing
	// (wire propagation, synchronization, and routing).
	NetworkTraversal Time = 50
	// DRAMAccess is the memory access time for data or directory state.
	DRAMAccess Time = 80
	// CacheAccess is the time for a cache to provide data to the interconnect.
	CacheAccess Time = 25
)

// Task is a pre-allocated schedulable unit of work. Hot paths that would
// otherwise allocate a fresh closure per event (network deliveries, delayed
// protocol sends) implement Task on a free-listed struct and schedule it
// with ScheduleTask/AtTask, so steady-state event traffic performs zero heap
// allocations.
type Task interface {
	Run()
}

// wheelSize is the span W of the kernel's near tier: an event due less than
// W nanoseconds after the current time goes into a wheel bucket, a later one
// into the far-tier heap.
const wheelSize = 1 << 10

const (
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
	noEntry    = int32(-1)
)

// event is a far-tier entry: either a closure or a Task (exactly one is
// set).
type event struct {
	at   Time
	seq  uint64 // tie-breaker: schedule order
	fn   func()
	task Task
}

// slot is a near-tier entry in the kernel's slab. It needs neither a time
// nor a sequence number: its bucket names the instant, and its place in the
// bucket's FIFO chain is its schedule order. next links the chain, or the
// free list while the slot is unused.
type slot struct {
	fn   func()
	task Task
	next int32
}

// Kernel is a deterministic discrete-event scheduler. Events fire in
// (time, schedule-order) order, so events scheduled for the same instant
// fire in schedule order and identical runs replay exactly.
//
// Events are kept in two tiers:
//
//   - The near tier holds events due before now+W (W = wheelSize) in a
//     wheel of W per-instant FIFO buckets, indexed by at & (W-1). Every
//     pending near event is due in [now, now+W), so no two instants share
//     a bucket, and a bucket's instant follows from its index and now. A
//     W-bit occupancy bitmap finds the next non-empty bucket in at most
//     W/64 word tests. Entries live in a slab of slots linked by int32
//     index and recycled through a free list.
//   - The far tier holds events due at now+W or later in a concrete-typed
//     4-ary min-heap ordered by (time, seq).
//
// Step fires the far-tier minimum when it is due no later than the next
// bucket's instant, and the bucket's head otherwise. The far tier wins a
// tie: an event reaches the far tier for instant t only when it is
// scheduled at a time now ≤ t-W, and one reaches the near tier for t only
// when scheduled at a time now > t-W. Time never runs backwards, so every
// far-tier event for t was scheduled before every near-tier event for t and
// holds the lower sequence number.
//
// Neither tier allocates once warm: the slab and the heap's backing slice
// are reused, so once they have grown to the high-water mark of pending
// events, Schedule and Step perform no allocation.
//
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	fired uint64

	// Near tier. head and tail of a bucket are valid only while its
	// occupancy bit is set.
	occ   [wheelWords]uint64
	head  [wheelSize]int32
	tail  [wheelSize]int32
	slots []slot
	free  int32 // first unused slot, or noEntry
	near  int   // pending near-tier events

	// Far tier.
	far []event // 4-ary min-heap by (at, seq)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{free: noEntry}
}

// Reset returns the kernel to time zero with an empty queue, retaining the
// slab and the heap's backing storage so a reused kernel reaches steady
// state (zero allocations per Schedule/Step) immediately. Only occupied
// buckets are visited. Pending event callbacks are dropped and their
// references released.
func (k *Kernel) Reset() {
	for w, word := range k.occ {
		for word != 0 {
			b := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			for i := k.head[b]; ; {
				s := &k.slots[i]
				s.fn, s.task = nil, nil // release callback references
				next := s.next
				s.next = k.free
				k.free = i
				if i == k.tail[b] {
					break
				}
				i = next
			}
		}
	}
	k.occ = [wheelWords]uint64{}
	k.near = 0
	for i := range k.far {
		k.far[i].fn = nil // release closure references
		k.far[i].task = nil
	}
	k.far = k.far[:0]
	k.now = 0
	k.seq = 0
	k.fired = 0
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (k *Kernel) Pending() int { return k.near + len(k.far) }

// Schedule runs fn after delay simulated nanoseconds. A negative delay is an
// error in the caller; it panics to surface the bug immediately.
func (k *Kernel) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.push(k.now+delay, fn, nil)
}

// At runs fn at the absolute time t, which must not be in the past.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.push(t, fn, nil)
}

// ScheduleTask runs task after delay simulated nanoseconds. It is the
// allocation-free counterpart of Schedule: the task object is supplied by
// the caller (typically from a free-list), so nothing is allocated here.
func (k *Kernel) ScheduleTask(delay Time, task Task) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.push(k.now+delay, nil, task)
}

// AtTask runs task at the absolute time t, which must not be in the past.
func (k *Kernel) AtTask(t Time, task Task) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.push(t, nil, task)
}

// push enqueues a callback for instant t ≥ now in the tier its distance
// selects.
func (k *Kernel) push(t Time, fn func(), task Task) {
	k.seq++
	if t-k.now >= wheelSize {
		k.far = append(k.far, event{at: t, seq: k.seq, fn: fn, task: task})
		k.siftUp(len(k.far) - 1)
		return
	}
	i := k.free
	if i == noEntry {
		i = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	} else {
		k.free = k.slots[i].next
	}
	s := &k.slots[i]
	s.fn, s.task = fn, task
	b := int(t) & wheelMask
	if bit := uint64(1) << (b & 63); k.occ[b>>6]&bit == 0 {
		k.occ[b>>6] |= bit
		k.head[b] = i
	} else {
		k.slots[k.tail[b]].next = i
	}
	k.tail[b] = i
	k.near++
}

// nextBucket returns the first non-empty bucket at or after now's bucket,
// wrapping around the wheel, and the instant it holds.
func (k *Kernel) nextBucket() (b int, at Time, ok bool) {
	if k.near == 0 {
		return 0, 0, false
	}
	start := int(k.now) & wheelMask
	w := start >> 6
	word := k.occ[w] &^ (uint64(1)<<(start&63) - 1)
	// wheelWords+1 tests: the last revisits the start word for the bits
	// below start, which hold the instants past the wrap.
	for range wheelWords + 1 {
		if word != 0 {
			b = w<<6 | bits.TrailingZeros64(word)
			return b, k.now + Time((b-start)&wheelMask), true
		}
		w = (w + 1) % wheelWords
		word = k.occ[w]
	}
	panic("sim: near-tier count disagrees with the occupancy bitmap")
}

// before reports whether far-tier event i sorts before event j: earlier
// time first, schedule order breaking ties.
func (k *Kernel) before(i, j int) bool {
	a, b := &k.far[i], &k.far[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property after appending at index i.
func (k *Kernel) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(i, parent) {
			return
		}
		k.far[i], k.far[parent] = k.far[parent], k.far[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (k *Kernel) siftDown() {
	n := len(k.far)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.before(c, best) {
				best = c
			}
		}
		if !k.before(best, i) {
			return
		}
		k.far[i], k.far[best] = k.far[best], k.far[i]
		i = best
	}
}

// next locates the next event without removing it: its instant, and either
// its bucket or fromFar. ok is false when nothing is pending.
func (k *Kernel) next() (at Time, b int, fromFar, ok bool) {
	b, at, ok = k.nextBucket()
	if len(k.far) > 0 && (!ok || k.far[0].at <= at) {
		return k.far[0].at, 0, true, true
	}
	return at, b, false, ok
}

// fire removes the event next located and runs it.
func (k *Kernel) fire(at Time, b int, fromFar bool) {
	var fn func()
	var task Task
	if fromFar {
		n := len(k.far)
		fn, task = k.far[0].fn, k.far[0].task
		k.far[0] = k.far[n-1]
		k.far[n-1].fn = nil // release closure reference
		k.far[n-1].task = nil
		k.far = k.far[:n-1]
		if n > 1 {
			k.siftDown()
		}
	} else {
		i := k.head[b]
		s := &k.slots[i]
		fn, task = s.fn, s.task
		s.fn, s.task = nil, nil
		if i == k.tail[b] {
			k.occ[b>>6] &^= uint64(1) << (b & 63)
		} else {
			k.head[b] = s.next
		}
		s.next = k.free
		k.free = i
		k.near--
	}
	k.now = at
	k.fired++
	if fn != nil {
		fn()
	} else {
		task.Run()
	}
}

// Step fires the next event and reports whether one existed.
func (k *Kernel) Step() bool {
	at, b, fromFar, ok := k.next()
	if ok {
		k.fire(at, b, fromFar)
	}
	return ok
}

// Run executes events until the queue is empty or the horizon is passed.
// It returns the time at which it stopped.
func (k *Kernel) Run(horizon Time) Time {
	for {
		at, b, fromFar, ok := k.next()
		if !ok || at > horizon {
			break
		}
		k.fire(at, b, fromFar)
	}
	if k.now < horizon {
		k.now = horizon
	}
	return k.now
}

// RunUntil executes events while cond returns false, stopping as soon as it
// returns true or the queue drains. cond is evaluated after every event.
func (k *Kernel) RunUntil(cond func() bool) {
	for !cond() {
		if !k.Step() {
			return
		}
	}
}

// Drain executes every remaining event.
func (k *Kernel) Drain() {
	for k.Step() {
	}
}
