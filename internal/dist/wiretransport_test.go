package dist

// White-box tests for the wire transport: option and URL validation, auth,
// counters, and reconnection across a coordinator restart. These drive real
// TCP listeners through Coordinator.Serve so the socket-level byte counters
// are live (httptest bypasses Serve, so tests that only need the protocol
// keep using it elsewhere).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/runner"
)

// serveWire binds a real listener and serves the coordinator on it.
func serveWire(t testing.TB, coord *Coordinator) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go coord.Serve(l)
	return "http://" + l.Addr().String()
}

// pipeClient opens an in-memory wire connection to coord (the co-execution
// seam) and completes the handshake as worker, for tests that speak raw
// frames. The connection closes at test cleanup.
func pipeClient(t *testing.T, coord *Coordinator, worker string) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	conn, r, err := coord.pipeConnect(context.Background())
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	wr := wire.NewWriter(conn)
	if err := writeHello(wr, worker, coord.opt.Secret, ""); err != nil {
		t.Fatalf("hello: %v", err)
	}
	rd := wire.NewReader(r)
	if h, _, err := rd.ReadFrame(); err != nil || h.Type != wire.FrameWelcome {
		t.Fatalf("handshake: got %s, err %v", wire.TypeName(h.Type), err)
	}
	return conn, rd, wr
}

// TestWireOptionValidation: the wire is the only worker transport.
// WorkerOptions.Wire accepts "" and "binary" and nothing else, and a
// coordinator URL the wire cannot dial is an error, not a silent switch to
// another transport.
func TestWireOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		wire, url, frag string
	}{
		{"", "http://127.0.0.1:1", ""},
		{"binary", "http://127.0.0.1:1", ""},
		{"http", "http://127.0.0.1:1", "transport was removed"},
		{"auto", "http://127.0.0.1:1", "unknown WorkerOptions.Wire"},
		{"", "https://127.0.0.1:1", "http://host:port"},
		{"", "mailto:coordinator", "http://host:port"},
	} {
		tr, err := newTransport(WorkerOptions{Coordinator: tc.url, Wire: tc.wire}, nil)
		switch {
		case tc.frag == "" && err != nil:
			t.Errorf("Wire %q, URL %q: unexpected error %v", tc.wire, tc.url, err)
		case tc.frag != "" && (err == nil || !strings.Contains(err.Error(), tc.frag)):
			t.Errorf("Wire %q, URL %q: err = %v, want one mentioning %q", tc.wire, tc.url, err, tc.frag)
		}
		if tr != nil {
			tr.Close()
		}
	}
}

// TestWireFleetCountersAndStatus: a sweep over two workers
// completes with correct results, and the coordinator's socket and frame
// counters — plus the per-connection detail in the status snapshot — all
// report the traffic.
func TestWireFleetCountersAndStatus(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second, LeaseBatch: 4})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, WorkerOptions{
			Coordinator: url, Name: fmt.Sprintf("bin-%d", i),
			Poll: 5 * time.Millisecond, Kinds: []string{echoKind},
		})
	}

	jobs := echoJobs(12)
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d = %q, want %q", i, out, want)
		}
	}

	st := coord.Stats()
	if st.FramesIn == 0 || st.FramesOut == 0 {
		t.Errorf("frame counters = %d in / %d out, want both > 0", st.FramesIn, st.FramesOut)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("socket byte counters = %d in / %d out, want both > 0", st.BytesIn, st.BytesOut)
	}
	snap := coord.statusSnapshot()
	if len(snap.WireConns) == 0 {
		t.Fatal("status snapshot lists no live wire connections")
	}
	for _, wc := range snap.WireConns {
		if wc.Worker == "" || wc.Remote == "" || wc.FramesIn == 0 || wc.FramesOut == 0 {
			t.Errorf("wire conn status incomplete: %+v", wc)
		}
	}
}

// TestWireAuthRejectedOnHello: a worker with the wrong secret exits with
// *AuthError — the terminal ERROR frame on HELLO is fatal, not retried.
func TestWireAuthRejectedOnHello(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{Secret: "right"})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	err := RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "intruder", Poll: 5 * time.Millisecond,
		Kinds: []string{echoKind}, Secret: "wrong",
	})
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("wrong-secret binary RunWorker returned %v (%T), want *AuthError", err, err)
	}
}

// killableListener records accepted connections so a test can sever every
// live wire at once, simulating a coordinator restart.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *killableListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestWireReconnectAfterCoordinatorRestart: mid-sweep, every connection and
// the listener die; the coordinator rebinds the same port and the
// workers reconnect (capped backoff) and finish the sweep.
// Leases lost in the cut reassign via the normal TTL machinery.
func TestWireReconnectAfterCoordinatorRestart(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 500 * time.Millisecond, LeaseBatch: 2})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	kl := &killableListener{Listener: inner}
	go coord.Serve(kl)
	addr := inner.Addr().String()

	ctx, cancel := testContext(t)
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, WorkerOptions{
			Coordinator: "http://" + addr, Name: fmt.Sprintf("phoenix-%d", i),
			Poll: 5 * time.Millisecond, Kinds: []string{echoKind},
		})
	}

	var once sync.Once
	jobs := echoJobs(12)
	outs, err := coord.Run(jobs, runner.Options{
		Progress: func(done, total int) {
			if done < 4 {
				return
			}
			once.Do(func() {
				kl.kill()
				// Rebind the same address: the workers' redial loop must find
				// the reborn coordinator without help.
				var l2 net.Listener
				for i := 0; i < 50; i++ {
					if l2, err = net.Listen("tcp", addr); err == nil {
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
				if l2 == nil {
					t.Errorf("rebind %s: %v", addr, err)
					cancel()
					return
				}
				t.Cleanup(func() { l2.Close() })
				go coord.Serve(l2)
			})
		},
	})
	if err != nil {
		t.Fatalf("Run across restart: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d = %q, want %q", i, out, want)
		}
	}
}

// TestReconnectDelayBackoff: the redial delay grows exponentially from the
// base, caps at the max, and always jitters inside [d/2, d).
func TestReconnectDelayBackoff(t *testing.T) {
	for fails := 1; fails <= 12; fails++ {
		want := wireBackoffBase << (fails - 1)
		if want > wireBackoffMax || want <= 0 {
			want = wireBackoffMax
		}
		for i := 0; i < 32; i++ {
			d := reconnectDelay(fails)
			if d < want/2 || d >= want {
				t.Fatalf("reconnectDelay(%d) = %v, want in [%v, %v)", fails, d, want/2, want)
			}
		}
	}
}
