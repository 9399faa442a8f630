package svc

// White-box scheduling test: the campaign runner submits its sweeps with a
// priority and relies on scheduleLocked's contract — highest priority
// first, FIFO within a priority — so that contract is pinned here.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// TestScheduleLockedPriorityFIFO: with the single slot artificially held,
// three equal-priority sweeps and one later high-priority sweep queue up;
// once the slot frees, the high-priority sweep jumps the queue and the
// equal-priority ones start in submission order. MaxActive 1 serializes
// execution, so the finish-log order is exactly the start order.
func TestScheduleLockedPriorityFIFO(t *testing.T) {
	var mu sync.Mutex
	var order []string
	s := New(Options{
		MaxActive:   1,
		Coordinator: dist.CoordinatorOptions{CoExecute: 2},
		Experiments: experiments.Options{Scale: experiments.Quick},
		Log: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			// "svc: sweep s001 (fig2) done in 0.1s" marks one completion.
			if strings.Contains(line, ") done in ") {
				fields := strings.Fields(line)
				mu.Lock()
				order = append(order, fields[2])
				mu.Unlock()
			}
		},
	})

	// Hold the only scheduler slot so submissions queue without starting.
	s.mu.Lock()
	s.active = 1
	s.mu.Unlock()

	submit := func(exp string, prio int) string {
		t.Helper()
		resp := s.submit(dist.SubmitRequest{Exp: exp, Scale: "quick", Priority: prio})
		if resp.Err != "" {
			t.Fatalf("submit %s: %s", exp, resp.Err)
		}
		return resp.ID
	}
	a := submit("fig2", 0)
	b := submit("fig3", 0)
	c := submit("fig4", 0)
	d := submit("table1", 7) // submitted last, must start first

	// Release the slot and let the scheduler run.
	s.mu.Lock()
	s.active = 0
	s.scheduleLocked()
	s.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for _, st := range s.SweepStatuses() {
			switch st.State {
			case Done:
				done++
			case Failed, Canceled:
				t.Fatalf("sweep %s (%s) ended %s: %s", st.ID, st.Exp, st.State, st.Err)
			}
		}
		// A sweep's state turns Done before its completion line is logged,
		// so wait for all four lines too.
		mu.Lock()
		logged := len(order)
		mu.Unlock()
		if done == 4 && logged == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeps did not finish; statuses: %+v", s.SweepStatuses())
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	want := strings.Join([]string{d, a, b, c}, ",")
	if got != want {
		t.Fatalf("start order %s, want %s (priority jumps the queue, FIFO within a priority)", got, want)
	}
}
