package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// closedLoop runs `clients` goroutines for dur. Client c issues the
// positions c, c+clients, c+2·clients, … of an endless round-robin over
// seq, each only after its previous request returned (a slow system
// therefore receives less load). fn answers position pos with query
// seq[pos%len(seq)] and returns the latency it measured; the generator adds
// nothing to it. It returns every latency and the measured wall time.
func closedLoop(clients int, dur time.Duration, seq []int, fn func(qi int) time.Duration) ([]time.Duration, time.Duration) {
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for pos := c; time.Now().Before(deadline); pos += clients {
				lats[c] = append(lats[c], fn(seq[pos%len(seq)]))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, wall
}

// openLoop sends request i at start+due[i] whatever the system is doing:
// a dispatcher sleeps to each due time and hands the index to one of
// `clients` senders through a queue as long as the schedule, so the
// dispatcher never blocks on a busy system. fn receives the instant the
// request was due and times the request from there, which charges a stall
// to every request queued behind it. It returns how late the dispatcher
// itself ran (hand-off time minus due time) per request and the wall time
// until the last answer.
//
// Run it under extraPs: the dispatcher needs a P of its own.
func openLoop(due []time.Duration, clients int, fn func(i int, dueAt time.Time)) (late []time.Duration, wall time.Duration) {
	type item struct {
		i     int
		dueAt time.Time
	}
	queue := make(chan item, len(due)) // whole schedule: the dispatcher must never wait for a sender
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				fn(it.i, it.dueAt)
			}
		}()
	}
	late = make([]time.Duration, len(due))
	start := time.Now()
	for i, d := range due {
		dueAt := start.Add(d)
		if wait := time.Until(dueAt); wait > 0 {
			preciseSleep(wait)
		}
		late[i] = time.Since(dueAt)
		queue <- item{i, dueAt}
	}
	close(queue)
	wg.Wait()
	return late, time.Since(start)
}

// extraPs runs fn with n more Ps than the process had, one per open-loop
// dispatcher. With every P busy in a millisecond-long search, the Go
// scheduler would let a dispatcher's wake-up wait for the next preemption
// point and the schedule would slip by as much; a P of its own hands that
// wake-up to the operating system.
func extraPs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + n)
	fn()
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep on an
// otherwise idle P is woken by the runtime's epoll_wait, whose timeout has
// millisecond granularity: the dispatcher would run up to 1 ms late with
// nothing else to blame.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// uniformSchedule spaces rate·dur arrivals evenly.
func uniformSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// zipfSequence draws n positions in [0, hot) with popularity
// P(k) ∝ (v+k)^-s, position 0 the hottest. v = 1 is the plain Zipf law;
// a larger v flattens its head (Zipf–Mandelbrot), so that a run's latency
// mix is an average over many of the hot queries, not the top three.
func zipfSequence(rng *rand.Rand, s, v float64, hot, n int) []int {
	z := rand.NewZipf(rng, s, v, uint64(hot-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
