package queryengine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestServerPanicContainment is the blast-radius gate: a request whose
// solve panics must fail only that client with ErrQueryPanic, while the
// server keeps answering every other request bit-identically to an
// unpoisoned server — and shutting it down leaks no goroutines.
func TestServerPanicContainment(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 8)
	want := serial(t, d, qs, Options{})

	goroutinesBefore := runtime.NumGoroutine()
	srv := NewServer(d, ServerOptions{Workers: 2})

	submitAll := func(phase string) {
		t.Helper()
		for i, q := range qs {
			r, err := submit(context.Background(), srv, q)
			if err != nil {
				t.Fatalf("%s: submit %d: %v", phase, i, err)
			}
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("%s: result %d differs from the serial answer", phase, i)
			}
		}
	}
	submitAll("before panic")

	// Two panicking requests in a row: the worker must survive each one,
	// replacing its planner, and the panic value must reach the client.
	for round := 0; round < 2; round++ {
		task := Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error {
			panic("deliberate solver bug")
		}}
		err := srv.Do(&task)
		if !errors.Is(err, ErrQueryPanic) {
			t.Fatalf("round %d: panicking request returned %v, want ErrQueryPanic", round, err)
		}
		if !strings.Contains(err.Error(), "deliberate solver bug") {
			t.Fatalf("round %d: panic value lost: %v", round, err)
		}
	}

	// The server must keep serving with answers bit-identical to before.
	submitAll("after panic")

	st := srv.Stats()
	if st.Panics != 2 {
		t.Errorf("Stats().Panics = %d, want 2", st.Panics)
	}
	if st.Errors < 2 {
		t.Errorf("Stats().Errors = %d, want >= 2 (panics count as errors)", st.Errors)
	}
	if want := int64(2*len(qs) + 2); st.Served != want {
		t.Errorf("Stats().Served = %d, want %d", st.Served, want)
	}
	if !strings.Contains(st.String(), "panics=2") {
		t.Errorf("stats line lacks panic counter: %s", st)
	}

	srv.Close()

	// No goroutine leaks: the workers must all have exited. Allow the
	// runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, want <= %d (leak)", runtime.NumGoroutine(), goroutinesBefore)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}

	// A closed server still answers submissions, with the typed error.
	if _, err := submit(context.Background(), srv, qs[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: %v, want ErrServerClosed", err)
	}
}

// TestServerPanicConcurrent interleaves panicking and healthy requests
// across workers under load; every healthy answer must stay correct and
// every poisoned one must fail typed.
func TestServerPanicConcurrent(t *testing.T) {
	d, qs := testWorkload(t, 0.1, 6)
	want := serial(t, d, qs, Options{})
	srv := NewServer(d, ServerOptions{Workers: 3, Queue: 4})
	defer srv.Close()

	const rounds = 5
	errc := make(chan error, rounds*(len(qs)+1))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			task := Task{Query: qs[0], Visit: func(*dataset.QueryInstance) error {
				panic("chaos")
			}}
			if err := srv.Do(&task); !errors.Is(err, ErrQueryPanic) {
				errc <- errors.New("panic task not answered with ErrQueryPanic")
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		for i, q := range qs {
			res, err := submit(context.Background(), srv, q)
			if err != nil {
				t.Fatalf("round %d query %d: %v", r, i, err)
			}
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("round %d query %d: answer drifted under panic chaos", r, i)
			}
		}
	}
	<-done
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Panics != rounds {
		t.Fatalf("Panics = %d, want %d", st.Panics, rounds)
	}
}
