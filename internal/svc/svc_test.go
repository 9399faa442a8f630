package svc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/svc"
)

// serialTSV runs one experiment in-process (no backend) and returns the
// exact bytes the CLI would write: one Fprintln per artifact.
func serialTSV(t *testing.T, id string) string {
	t.Helper()
	arts, err := experiments.Run(id, experiments.Options{Scale: experiments.Quick})
	if err != nil {
		t.Fatalf("serial %s: %v", id, err)
	}
	var buf bytes.Buffer
	for _, a := range arts {
		fmt.Fprintln(&buf, a.TSV())
	}
	return buf.String()
}

// TestServiceEndToEnd is the full sweep-service lifecycle: two sweeps
// submitted concurrently from independent clients (binary wire, shared
// secret), scheduled across one shared fleet, each result.tsv byte-identical
// to its serial run; a metrics scrape matching the golden shape with live
// fleet counters; then a drain whose persisted status agrees with /metrics
// on every shared counter.
func TestServiceEndToEnd(t *testing.T) {
	want := map[string]string{
		"fig1": serialTSV(t, "fig1"),
		"fig2": serialTSV(t, "fig2"),
	}
	// Drop the memo so the service run actually dispatches jobs through the
	// coordinator instead of serving every cell from this process's cache.
	experiments.ResetMemo()

	const secret = "svc-test-secret"
	s := svc.New(svc.Options{
		Coordinator: dist.CoordinatorOptions{CoExecute: 2, LeaseBatch: 4, Secret: secret},
		Experiments: experiments.Options{Scale: experiments.Quick, CacheDir: t.TempDir()},
		Log:         t.Logf,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l)
	base := "http://" + l.Addr().String()

	// Submit both sweeps concurrently, like two separate bashsim -submit
	// processes would.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ids := make(map[string]string) // exp -> sweep id
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, exp := range []string{"fig1", "fig2"} {
		wg.Add(1)
		go func(exp string, prio int) {
			defer wg.Done()
			resp, err := dist.SubmitSweep(ctx, dist.WorkerOptions{Coordinator: base, Secret: secret},
				dist.SubmitRequest{Exp: exp, Scale: "quick", Priority: prio})
			if err != nil {
				t.Errorf("submit %s: %v", exp, err)
				return
			}
			mu.Lock()
			ids[exp] = resp.ID
			mu.Unlock()
		}(exp, i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submission failed")
	}

	for exp, id := range ids {
		st := awaitSweep(t, base, id)
		if st.State != svc.Done {
			t.Fatalf("sweep %s (%s) ended %s: %s", id, exp, st.State, st.Err)
		}
		if st.Done != st.Total || st.Total == 0 && exp == "fig1" {
			t.Errorf("sweep %s progress %d/%d", id, st.Done, st.Total)
		}
		got := httpGet(t, base+"/sweeps/"+id+"/result.tsv")
		if got != want[exp] {
			t.Errorf("sweep %s (%s): result.tsv differs from serial run\ngot:\n%s\nwant:\n%s", id, exp, got, want[exp])
		}
	}

	// The fleet actually moved: the shared lease counter is nonzero on the
	// raw scrape, and the scrape's normalized shape matches the golden file.
	scrape := httpGet(t, base+"/metrics")
	if v := metricValue(t, scrape, "bashsim_leases_total"); v <= 0 {
		t.Errorf("bashsim_leases_total = %v, want > 0", v)
	}
	if v := metricValue(t, scrape, "bashsim_jobs_completed_total"); v <= 0 {
		t.Errorf("bashsim_jobs_completed_total = %v, want > 0", v)
	}
	checkGolden(t, scrape)

	// Drain: everything leased completes, nothing is lost, the persisted
	// snapshot and the registry agree on every shared counter.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var out bytes.Buffer
	if err := s.WriteStatus(&out); err != nil {
		t.Fatalf("write status: %v", err)
	}
	var persisted svc.Status
	if err := json.Unmarshal(out.Bytes(), &persisted); err != nil {
		t.Fatalf("persisted status is not JSON: %v", err)
	}
	if !persisted.Dist.Draining {
		t.Error("persisted status not marked draining")
	}
	if persisted.Dist.Completed+persisted.Dist.Failed != persisted.Dist.Dispatched {
		t.Errorf("jobs lost or double-counted: %d completed + %d failed != %d dispatched",
			persisted.Dist.Completed, persisted.Dist.Failed, persisted.Dist.Dispatched)
	}
	final := s.Registry().Expose()
	for name, got := range map[string]float64{
		"bashsim_leases_total":               float64(persisted.Dist.Leases),
		"bashsim_lease_refills_total":        float64(persisted.Dist.Refills),
		"bashsim_jobs_dispatched_total":      float64(persisted.Dist.Dispatched),
		"bashsim_jobs_completed_total":       float64(persisted.Dist.Completed),
		"bashsim_jobs_failed_total":          float64(persisted.Dist.Failed),
		"bashsim_lease_reassigned_total":     float64(persisted.Dist.Reassigned),
		"bashsim_adverts_total":              float64(persisted.Dist.Adverts),
		"bashsim_fetches_total":              float64(persisted.Dist.Fetches),
		"bashsim_fetch_false_positive_total": float64(persisted.Dist.FetchFalsePos),
	} {
		if v := metricValue(t, final, name); v != got {
			t.Errorf("%s: /metrics says %v, persisted status says %v", name, v, got)
		}
	}

	// Draining services refuse new work, in-band.
	if _, err := dist.SubmitSweep(ctx, dist.WorkerOptions{Coordinator: base, Secret: secret},
		dist.SubmitRequest{Exp: "fig1"}); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("submission during drain: err = %v, want draining rejection", err)
	}
}

// TestSubmitRejections: bad submissions are rejected with a description
// — in-band, or with a 400 for out-of-range requests, or as *AuthError for
// a wrong secret — before anything is queued.
func TestSubmitRejections(t *testing.T) {
	const secret = "rejections-secret"
	s := svc.New(svc.Options{
		Coordinator: dist.CoordinatorOptions{Secret: secret},
		Experiments: experiments.Options{Scale: experiments.Quick},
	})
	srv := &http.Server{Handler: s.Handler()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	base := "http://" + l.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tooManySeeds := make([]uint64, 4097)
	for i := range tooManySeeds {
		tooManySeeds[i] = uint64(i + 1)
	}
	for _, tc := range []struct {
		req    dist.SubmitRequest
		secret string
		frag   string
	}{
		{dist.SubmitRequest{}, secret, "missing experiment"},
		{dist.SubmitRequest{Exp: "fig99"}, secret, "unknown experiment"},
		{dist.SubmitRequest{Exp: "fig1", Scale: "medium"}, secret, "unknown scale"},
		{dist.SubmitRequest{Exp: "fig1", Priority: -1}, secret, "out of range"},
		{dist.SubmitRequest{Exp: "fig1", Seeds: tooManySeeds}, secret, "4097 seeds exceed"},
		{dist.SubmitRequest{Exp: "fig1"}, "wrong-" + secret, "shared secret mismatch"},
	} {
		_, err := dist.SubmitSweep(ctx, dist.WorkerOptions{Coordinator: base, Secret: tc.secret}, tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("submit %+v (%d seeds): err = %v, want %q", tc.req.Exp, len(tc.req.Seeds), err, tc.frag)
		}
		var ae *dist.AuthError
		if errors.As(err, &ae) != (tc.secret != secret) {
			t.Errorf("submit %+v (%d seeds): err = %v; *AuthError exactly when the secret is wrong", tc.req.Exp, len(tc.req.Seeds), err)
		}
	}
	if got := s.Coordinator().Snapshot().Workers; got != 0 {
		t.Errorf("submissions registered %d workers, want 0", got)
	}

	// The JSON submit endpoint answers an out-of-range priority with a 400.
	req, err := http.NewRequest(http.MethodPost, base+"/dist/submit", strings.NewReader(`{"exp":"fig1","priority":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Bashsim-Secret", secret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /dist/submit with priority -1 = %d, want 400", resp.StatusCode)
	}

	// Unknown sweep ids 404 on every read endpoint.
	for _, path := range []string{"/sweeps/s999", "/sweeps/s999/result.tsv"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// awaitSweep polls GET /sweeps/{id} until the sweep reaches a terminal
// state.
func awaitSweep(t *testing.T, base, id string) svc.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st svc.SweepStatus
		if err := json.Unmarshal([]byte(httpGet(t, base+"/sweeps/"+id)), &st); err != nil {
			t.Fatalf("sweep %s status: %v", id, err)
		}
		switch st.State {
		case svc.Done, svc.Failed, svc.Canceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s (%d/%d) at deadline", id, st.State, st.Done, st.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts one unlabeled sample's value from a Prometheus text
// scrape.
func metricValue(t *testing.T, scrape, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in scrape", name)
	return 0
}

// normalizeScrape reduces a scrape to its shape: values are dropped, label
// values are dropped (names kept), and consecutive duplicate series lines
// collapse — so per-connection and per-sweep cardinality doesn't churn the
// golden file while names, types, help text, and label structure stay
// pinned.
func normalizeScrape(scrape string) string {
	var b strings.Builder
	last := ""
	for _, line := range strings.Split(scrape, "\n") {
		if line == "" {
			continue
		}
		out := line
		if !strings.HasPrefix(line, "#") {
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			series := line[:sp]
			if open := strings.IndexByte(series, '{'); open >= 0 {
				series = series[:open] + "{" + labelNames(series[open+1:len(series)-1]) + "}"
			}
			out = series
		}
		if out != last {
			b.WriteString(out)
			b.WriteByte('\n')
			last = out
		}
	}
	return b.String()
}

// labelNames strips the quoted values out of a label set, keeping names.
func labelNames(inner string) string {
	var names []string
	for i := 0; i < len(inner); {
		eq := strings.IndexByte(inner[i:], '=')
		if eq < 0 {
			break
		}
		names = append(names, inner[i:i+eq])
		// Skip ="..." with escapes, then an optional comma.
		j := i + eq + 2
		for j < len(inner) && inner[j] != '"' {
			if inner[j] == '\\' {
				j++
			}
			j++
		}
		i = j + 1
		if i < len(inner) && inner[i] == ',' {
			i++
		}
	}
	return strings.Join(names, ",")
}

// checkGolden compares the normalized scrape against testdata/metrics.golden
// (regenerate with UPDATE_GOLDEN=1 go test ./internal/svc/).
func checkGolden(t *testing.T, scrape string) {
	t.Helper()
	got := normalizeScrape(scrape)
	path := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("normalized /metrics scrape differs from %s (regenerate with UPDATE_GOLDEN=1)\ngot:\n%s", path, got)
	}
}
