package queryengine

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestDeadlineOrderedService: with DeadlineOrdered set, queued requests
// are served earliest-deadline-first — not in arrival order — with
// deadline-free requests after every deadlined one, and arrival order as
// the tie-break among the deadline-free.
func TestDeadlineOrderedService(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 1)
	srv := NewServer(d, ServerOptions{Workers: 1, Queue: 16, DeadlineOrdered: true})
	defer srv.Close()

	// Park the single worker on a gate task so everything submitted next
	// piles up in the EDF heap instead of being served as it arrives.
	gate := make(chan struct{})
	started := make(chan struct{})
	gateTask := Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error {
		close(started)
		<-gate
		return nil
	}}
	gateDone := make(chan error, 1)
	go func() { gateDone <- srv.Do(&gateTask) }()
	<-started

	queued := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			srv.edf.mu.Lock()
			l := len(srv.edf.items)
			srv.edf.mu.Unlock()
			if l >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d tasks reached the EDF heap", l, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Submit with deadlines hours out (they never fire) in scrambled
	// order, then two deadline-free requests. Submissions are sequenced —
	// each must reach the heap before the next is sent — so the admission
	// order, and with it the tie-break, is deterministic.
	base := time.Now()
	offsets := []time.Duration{3 * time.Hour, time.Hour, 5 * time.Hour, 2 * time.Hour, 4 * time.Hour, 0, 0}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, off := range offsets {
		ctx := context.Background()
		if off > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, base.Add(off))
			defer cancel()
		}
		i := i
		task := &Task{Query: qs[0], Ctx: ctx, Visit: func(*dataset.QueryInstance) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Do(task); err != nil {
				t.Errorf("task %d: %v", i, err)
			}
		}()
		queued(i + 1)
	}

	close(gate)
	if err := <-gateDone; err != nil {
		t.Fatalf("gate task: %v", err)
	}
	wg.Wait()

	want := []int{1, 3, 0, 4, 2, 5, 6} // ascending deadline, then FIFO deadline-free
	if len(order) != len(want) {
		t.Fatalf("served %d tasks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

// TestEDFQueueBounded: push blocks at capacity until a pop frees a
// slot. Regression: the heap was unbounded, so the dispatcher drained
// the bounded admission channel as fast as requests arrived and the
// documented Queue backpressure silently disappeared in EDF mode.
func TestEDFQueueBounded(t *testing.T) {
	q := newEDFQueue(2)
	q.push(&Task{})
	q.push(&Task{})
	pushed := make(chan struct{})
	go func() {
		q.push(&Task{})
		close(pushed)
	}()
	select {
	case <-pushed:
		t.Fatal("push past capacity did not block")
	case <-time.After(50 * time.Millisecond):
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop on a full queue failed")
	}
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("push did not resume after a pop freed a slot")
	}
	q.close()
	for i := 0; i < 2; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("drain pop %d failed", i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed empty queue reported a task")
	}
}

// TestDeadlineOrderedBackpressure: at the server level, the EDF heap
// never holds more than Queue tasks even with far more submitted — the
// overflow waits in Do, exactly like FIFO mode.
func TestDeadlineOrderedBackpressure(t *testing.T) {
	const queue = 2
	d, qs := testWorkload(t, 0.1, 1)
	srv := NewServer(d, ServerOptions{Workers: 1, Queue: queue, DeadlineOrdered: true})
	defer srv.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	gateTask := Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error {
		close(started)
		<-gate
		return nil
	}}
	gateDone := make(chan error, 1)
	go func() { gateDone <- srv.Do(&gateTask) }()
	<-started

	const submitted = 6
	var wg sync.WaitGroup
	for i := 0; i < submitted; i++ {
		task := &Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error { return nil }}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Do(task); err != nil {
				t.Errorf("task: %v", err)
			}
		}()
	}

	// While the worker is parked, the waiting backlog must stay capped at
	// Queue no matter how many submissions pile up behind Do.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		srv.edf.mu.Lock()
		l := len(srv.edf.items)
		srv.edf.mu.Unlock()
		if l > queue {
			t.Fatalf("EDF heap holds %d tasks, capacity %d", l, queue)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	if err := <-gateDone; err != nil {
		t.Fatalf("gate task: %v", err)
	}
	wg.Wait()
}

// TestDeadlineOrderedMatchesFIFO: the golden guarantee holds in EDF mode
// too — ordering changes scheduling, never answers.
func TestDeadlineOrderedMatchesFIFO(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 8)
	want := serial(t, d, qs, Options{})
	srv := NewServer(d, ServerOptions{Workers: 2, DeadlineOrdered: true})
	defer srv.Close()
	for i, q := range qs {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		r, err := submit(ctx, srv, q)
		cancel()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, want[i]) {
			t.Fatalf("query %d: EDF result %+v, serial %+v", i, r, want[i])
		}
	}
}
