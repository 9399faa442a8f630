package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Drain()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("now = %d, want 30", k.Now())
	}
}

func TestKernelTieBreakByScheduleOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			k.Schedule(1, recur)
		}
	}
	k.Schedule(0, recur)
	k.Drain()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Now() != 99 {
		t.Fatalf("now = %d, want 99", k.Now())
	}
}

func TestKernelRunHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10, func() { fired++ })
	k.Schedule(100, func() { fired++ })
	k.Run(50)
	if fired != 1 {
		t.Fatalf("fired = %d before horizon 50", fired)
	}
	if k.Now() != 50 {
		t.Fatalf("now = %d, want 50", k.Now())
	}
	k.Drain()
	if fired != 2 {
		t.Fatalf("fired = %d after drain", fired)
	}
}

func TestKernelPastSchedulePanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Drain()
}

func TestKernelStepEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestKernelTimeNeverDecreases: events always fire in nondecreasing time
// order, for arbitrary schedules.
func TestKernelTimeNeverDecreases(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var last Time = -1
		ok := true
		for _, d := range delays {
			k.Schedule(Time(d), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Drain()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelTotalOrder cross-checks the kernel against a reference sort:
// for arbitrary schedules, events fire in exactly (time, seq) order.
func TestKernelTotalOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		type key struct {
			at  Time
			seq int
		}
		var want []key
		var got []key
		for i, d := range delays {
			at := Time(d)
			i := i
			want = append(want, key{at, i})
			k.At(at, func() { got = append(got, key{at, i}) })
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		k.Drain()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelReset(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10, func() { fired++ })
	k.Schedule(20, func() { fired++ })
	k.Step()
	k.Reset()
	if k.Now() != 0 || k.Fired() != 0 || k.Pending() != 0 {
		t.Fatalf("after Reset: now=%d fired=%d pending=%d", k.Now(), k.Fired(), k.Pending())
	}
	// The dropped event must not fire; the kernel must be fully reusable.
	k.Schedule(5, func() { fired += 100 })
	k.Drain()
	if fired != 101 {
		t.Fatalf("fired = %d, want 101 (one pre-reset, one post-reset)", fired)
	}
	if k.Now() != 5 || k.Fired() != 1 {
		t.Fatalf("after reuse: now=%d fired=%d", k.Now(), k.Fired())
	}
}

// TestKernelZeroAllocSteadyState: once the near-tier slab and the far-tier
// heap have grown to their high-water marks, Schedule and Step allocate
// nothing. Delays reach past the wheel span, so both tiers are exercised.
func TestKernelZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	delay := func(i int) Time {
		if i%4 == 3 {
			return wheelSize + Time(i%5)*wheelSize/2 // far tier
		}
		return Time(i % 13) // near tier
	}
	// Warm both tiers to their high-water marks.
	for i := 0; i < 256; i++ {
		k.Schedule(delay(i), fn)
	}
	k.Drain()
	k.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			k.Schedule(delay(i), fn)
		}
		if len(k.far) == 0 || k.near == 0 {
			t.Fatalf("schedule left a tier empty: near %d far %d", k.near, len(k.far))
		}
		for k.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs per 256-event cycle = %v, want 0", allocs)
	}
}

func TestWatchdogTripsWithoutProgress(t *testing.T) {
	k := NewKernel()
	tripped := false
	NewWatchdog(k, 100, func(Time) { tripped = true })
	// Keep the clock moving without reporting progress.
	for i := 0; i < 10; i++ {
		k.Schedule(Time(50*i), func() {})
	}
	k.Drain()
	if !tripped {
		t.Fatal("watchdog did not trip")
	}
}

func TestWatchdogProgressPreventsTrip(t *testing.T) {
	k := NewKernel()
	w := NewWatchdog(k, 100, func(Time) { t.Error("tripped despite progress") })
	var tick func()
	n := 0
	tick = func() {
		w.Progress()
		if n++; n < 20 {
			k.Schedule(50, tick)
		} else {
			w.Stop()
		}
	}
	k.Schedule(1, tick)
	k.Drain()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const mean = 500.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.ExpTime(mean))
	}
	got := sum / n
	// Integer truncation shifts the mean down by ~0.5.
	if math.Abs(got-mean) > mean*0.02 {
		t.Fatalf("exp mean = %.1f, want ~%.0f", got, mean)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

// refQueue is the differential tests' reference event queue: a plain list
// popped by a linear scan for the minimum (at, seq).
type refQueue struct {
	evs []refEvent
	seq int
}

type refEvent struct {
	at  Time
	seq int
	id  int
	far bool // scheduled W or more ahead: the kernel's far tier
}

func (q *refQueue) push(at Time, id int, far bool) {
	q.seq++
	q.evs = append(q.evs, refEvent{at: at, seq: q.seq, id: id, far: far})
}

func (q *refQueue) min() int {
	best := 0
	for i, e := range q.evs {
		b := q.evs[best]
		if e.at < b.at || e.at == b.at && e.seq < b.seq {
			best = i
		}
	}
	return best
}

func (q *refQueue) pop() refEvent {
	i := q.min()
	e := q.evs[i]
	q.evs = append(q.evs[:i], q.evs[i+1:]...)
	return e
}

// TestKernelMatchesReference runs random nested schedules through the
// kernel and a reference queue in lock step: every event the kernel fires
// must be the reference's minimum (at, seq). Delays span 0 to 4W around the
// wheel span W, with W-1, W and W+1 drawn often. Some events schedule a
// far-tier event at an instant T plus a helper that, once T is within W,
// schedules near-tier events at T, forcing cross-tier ties. The driver
// mixes Step with Run horizons that stop mid-stream, and resets the kernel
// mid-run before reusing it.
func TestKernelMatchesReference(t *testing.T) {
	const budget = 6000 // events scheduled per seed
	var ties, horizons, resets int
	for seed := uint64(1); seed <= 12; seed++ {
		rng := NewRNG(seed)
		k := NewKernel()
		var ref refQueue
		ids := 0
		// tiers records, per instant, whether a far-tier and a near-tier
		// event fired there.
		tiers := map[Time][2]bool{}
		delay := func() Time {
			switch rng.Intn(10) {
			case 0:
				return 0
			case 1:
				return wheelSize - 1
			case 2:
				return wheelSize
			case 3:
				return wheelSize + 1
			case 4:
				return Time(rng.Intn(4*wheelSize + 1))
			case 5:
				return Time(rng.Intn(wheelSize))
			default:
				return Time(rng.Intn(64))
			}
		}
		// schedule adds an event at at to both queues. When it fires it
		// checks the reference agrees, schedules random children and, if
		// tieAt is set, near-tier events at tieAt.
		var schedule func(at, tieAt Time)
		schedule = func(at, tieAt Time) {
			id := ids
			ids++
			far := at-k.Now() >= wheelSize
			ref.push(at, id, far)
			k.At(at, func() {
				want := ref.pop()
				if want.id != id || want.at != k.Now() {
					t.Fatalf("seed %d: fired event %d at %d, reference fires %d at %d",
						seed, id, k.Now(), want.id, want.at)
				}
				seen := tiers[want.at]
				if want.far {
					seen[0] = true
				} else {
					seen[1] = true
				}
				tiers[want.at] = seen
				for n := rng.Intn(2); tieAt > 0 && n >= 0; n-- {
					schedule(tieAt, 0)
				}
				if ids >= budget {
					return
				}
				for n := []int{0, 1, 1, 2}[rng.Intn(4)]; n > 0; n-- {
					schedule(k.Now()+delay(), 0)
				}
				if rng.Intn(8) == 0 {
					tie := k.Now() + wheelSize + Time(rng.Intn(64))
					schedule(tie, 0)
					schedule(tie-Time(1+rng.Intn(wheelSize-1)), tie)
				}
			})
		}
		for i := 0; i < 64; i++ {
			schedule(delay(), 0)
		}
		reset := false
		for len(ref.evs) > 0 || k.Pending() > 0 {
			if k.Pending() != len(ref.evs) {
				t.Fatalf("seed %d: kernel holds %d events, reference %d", seed, k.Pending(), len(ref.evs))
			}
			switch {
			case !reset && ids >= budget/2:
				reset = true
				resets++
				k.Reset()
				ref = refQueue{}
				tiers = map[Time][2]bool{}
				if k.Now() != 0 || k.Pending() != 0 || k.Fired() != 0 {
					t.Fatalf("seed %d: after Reset now=%d pending=%d fired=%d", seed, k.Now(), k.Pending(), k.Fired())
				}
				for i := 0; i < 64; i++ {
					schedule(delay(), 0)
				}
			case rng.Intn(4) == 0:
				h := k.Now() + Time(rng.Intn(2*wheelSize))
				k.Run(h)
				horizons++
				if k.Now() != h {
					t.Fatalf("seed %d: Run(%d) stopped at %d", seed, h, k.Now())
				}
				if len(ref.evs) > 0 && ref.evs[ref.min()].at <= h {
					t.Fatalf("seed %d: Run(%d) left an event due at %d", seed, h, ref.evs[ref.min()].at)
				}
			default:
				k.Step()
			}
		}
		for _, s := range tiers {
			if s[0] && s[1] {
				ties++
			}
		}
	}
	if ties == 0 || horizons == 0 || resets == 0 {
		t.Fatalf("coverage: %d cross-tier ties, %d horizons, %d resets", ties, horizons, resets)
	}
	t.Logf("%d cross-tier ties, %d horizons, %d resets", ties, horizons, resets)
}
