// Package sim is the discrete-event simulation kernel underneath the MANET
// simulator. It provides a binary-heap event queue with a deterministic
// tie-break, a simulated clock, and named deterministic random-number
// substreams so that an entire scenario is reproducible from a single seed.
//
// The kernel plays the role ns-2's scheduler played for the paper's
// evaluation: hello broadcasts, neighbor timeouts and cluster-contention
// timers are all events on this queue.
//
// The event API comes in three flavors, so the per-beacon hot path can run
// allocation-free:
//
//   - At/After allocate a fresh Event per call and hand it to the caller,
//     who may Cancel it later. Use for cold-path, one-shot scheduling.
//   - NewEvent + Reschedule bind a callback once and reuse the same Event
//     for every occurrence — the shape of a periodic tick or a pooled
//     object's timer. Zero allocations after the first.
//   - AtPooled/AfterPooled are fire-and-forget: no handle is returned, and
//     the Event is recycled through an internal free list once it fires.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"mobic/internal/obs"
)

// Event is a scheduled callback. Fire runs at the event's timestamp with the
// scheduler's current time.
type Event struct {
	time float64
	seq  uint64
	// index is the heap position, -1 while not queued (fresh, fired,
	// canceled-and-reaped, or detached via NewEvent).
	index    int
	canceled bool
	fired    bool
	// pooled marks fire-and-forget events owned by the scheduler's free
	// list; they are recycled as soon as they leave the queue.
	pooled bool
	fire   func(now float64)
}

// Time returns the simulated time at which the event is scheduled.
func (e *Event) Time() float64 { return e.time }

// Canceled reports whether the event was canceled before it fired. An event
// that already ran reports false: fired and canceled are mutually exclusive
// (see Scheduler.Cancel).
func (e *Event) Canceled() bool { return e.canceled }

// Fired reports whether the event's callback has run (at least once; a
// rescheduled event reports false again while it is queued).
func (e *Event) Fired() bool { return e.fired }

// eventQueue implements heap.Interface ordered by (time, seq). The sequence
// number makes simultaneous events fire in scheduling order, which keeps runs
// bit-for-bit reproducible.
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		panic(fmt.Sprintf("sim: eventQueue.Push got %T, want *Event", x))
	}
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// reapMinCanceled is the floor below which canceled events are left to be
// dropped lazily on pop; compacting tiny queues is not worth the re-heapify.
const reapMinCanceled = 64

// Scheduler owns the simulated clock and the pending event queue.
// It is not safe for concurrent use; the simulator is single-threaded by
// design (determinism beats parallelism for a 50-node scenario, and the
// experiment harness parallelizes across scenarios instead).
type Scheduler struct {
	now     float64
	queue   eventQueue
	nextSeq uint64
	fired   uint64
	// free is the recycle list for pooled (fire-and-forget) events.
	free []*Event
	// canceledQueued counts canceled events still sitting in the queue;
	// past a threshold they are reaped eagerly instead of lazily on pop,
	// so cancel-heavy workloads don't bloat the heap.
	canceledQueued int
	// rec receives kernel telemetry (events fired/canceled/pooled, heap
	// depth). Never nil — obs.Nop by default — and never consulted for
	// anything that feeds back into scheduling, so instrumentation cannot
	// perturb determinism.
	rec obs.Recorder
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{rec: obs.Nop{}}
}

// SetRecorder installs the telemetry recorder (obs.Nop disables). Passing
// nil restores the no-op default.
func (s *Scheduler) SetRecorder(rec obs.Recorder) {
	if rec == nil {
		rec = obs.Nop{}
	}
	s.rec = rec
}

// Now returns the current simulated time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Pending returns the number of events currently queued (including canceled
// events not yet reaped).
func (s *Scheduler) Pending() int { return len(s.queue) }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// ErrPastEvent is returned when an event is scheduled before the current
// simulated time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ErrNilCallback is returned when an event is created without a callback.
var ErrNilCallback = errors.New("sim: event has no callback")

// At schedules fire to run at absolute time t. Scheduling at the current
// time is allowed (the event runs after already-queued events at that time).
func (s *Scheduler) At(t float64, fire func(now float64)) (*Event, error) {
	if math.IsNaN(t) || t < s.now {
		return nil, fmt.Errorf("%w: t=%g now=%g", ErrPastEvent, t, s.now)
	}
	ev := &Event{time: t, seq: s.nextSeq, fire: fire}
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return ev, nil
}

// After schedules fire to run delay seconds from now.
func (s *Scheduler) After(delay float64, fire func(now float64)) (*Event, error) {
	return s.At(s.now+delay, fire)
}

// AtPooled schedules fire at absolute time t on an event drawn from the
// scheduler's free list. No handle is returned — the event cannot be
// canceled — and it is recycled as soon as it fires, so a steady stream of
// fire-and-forget events allocates nothing once the pool is warm. The
// callback itself is still per-call; pair with NewEvent/Reschedule when the
// closure too should be bound once.
func (s *Scheduler) AtPooled(t float64, fire func(now float64)) error {
	if math.IsNaN(t) || t < s.now {
		return fmt.Errorf("%w: t=%g now=%g", ErrPastEvent, t, s.now)
	}
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.canceled, ev.fired = false, false
	} else {
		ev = &Event{}
	}
	ev.time, ev.seq, ev.fire, ev.pooled = t, s.nextSeq, fire, true
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return nil
}

// AfterPooled schedules fire delay seconds from now on a pooled event.
func (s *Scheduler) AfterPooled(delay float64, fire func(now float64)) error {
	return s.AtPooled(s.now+delay, fire)
}

// NewEvent returns a detached event with fire bound once. It is not queued;
// arm it with Reschedule. The caller owns the event and may reuse it for
// every occurrence of a periodic or pooled activity — the allocation-free
// alternative to calling After with a fresh closure each round.
func (s *Scheduler) NewEvent(fire func(now float64)) *Event {
	return &Event{index: -1, fire: fire}
}

// Reschedule queues ev to fire at absolute time t, reusing the callback
// bound at creation. It accepts an event in any non-queued state (fresh from
// NewEvent, already fired, or canceled) and also an event still in the
// queue, which is simply moved to its new time. Rescheduling clears the
// fired and canceled flags.
func (s *Scheduler) Reschedule(ev *Event, t float64) error {
	if ev == nil || ev.fire == nil {
		return ErrNilCallback
	}
	if math.IsNaN(t) || t < s.now {
		return fmt.Errorf("%w: t=%g now=%g", ErrPastEvent, t, s.now)
	}
	if ev.canceled && ev.index >= 0 {
		s.canceledQueued--
	}
	ev.canceled, ev.fired = false, false
	ev.time = t
	ev.seq = s.nextSeq
	s.nextSeq++
	if ev.index >= 0 {
		heap.Fix(&s.queue, ev.index)
		return nil
	}
	heap.Push(&s.queue, ev)
	return nil
}

// Cancel marks ev so it will not fire. Canceling an already-fired event is a
// no-op — the event keeps reporting Fired() true and Canceled() false, so
// the two outcomes stay distinguishable. Canceling an already-canceled event
// is likewise a no-op. Canceled events are dropped lazily when popped, or
// eagerly when enough of them accumulate in the queue.
func (s *Scheduler) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.fired {
		return
	}
	ev.canceled = true
	s.rec.Add(obs.SimEventsCanceled, 1)
	if ev.index >= 0 {
		s.canceledQueued++
		s.maybeReap()
	}
}

// maybeReap compacts the queue when canceled events make up the majority of
// a non-trivial heap: they are filtered out in one pass and the heap is
// rebuilt, so cancel-heavy workloads (e.g. contention timers under churn)
// stay O(live events) instead of O(everything ever scheduled).
func (s *Scheduler) maybeReap() {
	if s.canceledQueued < reapMinCanceled || 2*s.canceledQueued < len(s.queue) {
		return
	}
	live := s.queue[:0]
	for _, ev := range s.queue {
		if ev.canceled {
			s.recycle(ev)
			continue
		}
		live = append(live, ev)
	}
	// Zero the tail so reaped events are not retained by the backing array.
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = live
	for i, ev := range s.queue {
		ev.index = i
	}
	heap.Init(&s.queue)
	s.canceledQueued = 0
}

// recycle returns a no-longer-queued event to the free list if the
// scheduler owns it; caller-held events are left to the caller.
func (s *Scheduler) recycle(ev *Event) {
	ev.index = -1
	if !ev.pooled {
		return
	}
	ev.fire = nil // drop the closure so its captures are collectable
	s.free = append(s.free, ev)
	s.rec.Add(obs.SimEventsPooled, 1)
}

// Step pops and fires the earliest pending event. It returns false when the
// queue is empty. Canceled events are skipped silently.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		evAny := heap.Pop(&s.queue)
		ev, ok := evAny.(*Event)
		if !ok {
			panic(fmt.Sprintf("sim: heap.Pop returned %T, want *Event", evAny))
		}
		if ev.canceled {
			s.canceledQueued--
			s.recycle(ev)
			continue
		}
		s.now = ev.time
		s.fired++
		s.rec.Add(obs.SimEventsFired, 1)
		s.rec.Set(obs.SimHeapDepth, float64(len(s.queue)))
		// Mark fired before running so a Cancel from inside the callback
		// is correctly a no-op, and a Reschedule re-arms cleanly.
		ev.fired = true
		fire := ev.fire
		if ev.pooled {
			// Pooled events are recycled before the callback runs, so a
			// fire-and-forget chain (the callback posting the next pooled
			// event) reuses this very event instead of growing the pool.
			s.recycle(ev)
		}
		fire(s.now)
		return true
	}
	return false
}

// RunUntil fires events in order until the clock would pass horizon or the
// queue drains. Events scheduled exactly at the horizon still fire. The clock
// is left at min(horizon, time of last fired event) — i.e., it never exceeds
// the horizon.
func (s *Scheduler) RunUntil(horizon float64) {
	for len(s.queue) > 0 {
		// Peek: queue[0] is the earliest event.
		next := s.queue[0]
		if next.canceled {
			popped := heap.Pop(&s.queue)
			if ev, ok := popped.(*Event); ok {
				s.canceledQueued--
				s.recycle(ev)
			}
			continue
		}
		if next.time > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Drain fires every remaining event regardless of time. Intended for tests.
func (s *Scheduler) Drain() {
	for s.Step() {
	}
}
