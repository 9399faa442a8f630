package svc

// White-box scheduling test: the campaign runner submits its sweeps with a
// priority and relies on scheduleLocked's contract — highest priority
// first, FIFO within a priority — so that contract is pinned here.

import (
	"fmt"
	"sort"
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
// equal-priority ones start in submission order. The start order is read
// from each sweep's start time.
func TestScheduleLockedPriorityFIFO(t *testing.T) {
	s := New(Options{
		MaxActive:   1,
		Coordinator: dist.CoordinatorOptions{CoExecute: 2},
		Experiments: experiments.Options{Scale: experiments.Quick},
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
	var statuses []SweepStatus
	for {
		statuses = s.SweepStatuses()
		done := 0
		for _, st := range statuses {
			switch st.State {
			case Done:
				done++
			case Failed, Canceled:
				t.Fatalf("sweep %s (%s) ended %s: %s", st.ID, st.Exp, st.State, st.Err)
			}
		}
		if done == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeps did not finish; statuses: %+v", statuses)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sort.SliceStable(statuses, func(i, j int) bool { return statuses[i].Started.Before(statuses[j].Started) })
	var order []string
	for _, st := range statuses {
		order = append(order, st.ID)
	}
	got := strings.Join(order, ",")
	want := strings.Join([]string{d, a, b, c}, ",")
	if got != want {
		t.Fatalf("start order %s, want %s (priority jumps the queue, FIFO within a priority)", got, want)
	}
}

// TestLogListsCompletionBeforeNextStart: with one slot, the service log
// lists each sweep's completion line before the start line of the sweep
// that takes its slot, so the log reads in the order the sweeps ran.
func TestLogListsCompletionBeforeNextStart(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := New(Options{
		MaxActive:   1,
		Coordinator: dist.CoordinatorOptions{CoExecute: 2},
		Experiments: experiments.Options{Scale: experiments.Quick},
		Log: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	var ids []string
	for _, exp := range []string{"fig2", "fig3", "fig4", "table1"} {
		resp := s.submit(dist.SubmitRequest{Exp: exp, Scale: "quick"})
		if resp.Err != "" {
			t.Fatalf("submit %s: %s", exp, resp.Err)
		}
		ids = append(ids, resp.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := 0
		for _, st := range s.SweepStatuses() {
			if st.State == Done {
				done++
			} else if st.State == Failed || st.State == Canceled {
				t.Fatalf("sweep %s ended %s: %s", st.ID, st.State, st.Err)
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeps did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	running := ""
	var started []string
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) > 3 && f[1] == "started":
			if running != "" {
				t.Fatalf("sweep %s started before %s logged its completion; log:\n%s", f[3], running, strings.Join(lines, "\n"))
			}
			running = strings.TrimSuffix(f[3], ":")
			started = append(started, running)
		case len(f) > 2 && f[1] == "sweep" && strings.Contains(l, " done in "):
			if f[2] != running {
				t.Fatalf("sweep %s logged completion while %q was the running one; log:\n%s", f[2], running, strings.Join(lines, "\n"))
			}
			running = ""
		}
	}
	if len(started) != len(ids) || running != "" {
		t.Fatalf("log holds %d start lines for %d sweeps (last running %q):\n%s", len(started), len(ids), running, strings.Join(lines, "\n"))
	}
}
