package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"fpgauv"
)

// bigBody is far more than the loopback socket buffers hold, so writing
// it to a client that reads nothing blocks the server.
const bigBody = 64 << 20

// withBigResponse serves bigBody bytes on /big next to h, and sends on
// cut how long the handler wrote before a write failed.
func withBigResponse(h http.Handler, cut chan<- time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		chunk := make([]byte, 64<<10)
		for n := 0; n < bigBody; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				cut <- time.Since(start)
				return
			}
		}
	})
	return mux
}

// Both listeners drop a client that trickles its headers (slowloris),
// one that trickles its body, an idle keep-alive connection, and one
// that never reads its response, each once its deadline has passed —
// while serving a well-behaved request.
func TestListenersDropSlowClients(t *testing.T) {
	// Distinct deadlines, so each drop shows which one fired: without
	// ReadHeaderTimeout or IdleTimeout, net/http falls back to ReadTimeout.
	d := deadlines{
		readHeader: 100 * time.Millisecond,
		read:       800 * time.Millisecond,
		write:      time.Second,
		idle:       200 * time.Millisecond,
	}
	// The API listener's handler reads the body as /v1/infer does; the
	// deadlines under test are the server's, whatever the handler.
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	})
	for _, l := range []struct {
		name string
		h    http.Handler
		path string
	}{
		{"api", api, "/v1/infer"},
		{"debug", fpgauv.DebugHandler(), "/debug/pprof/cmdline"},
	} {
		t.Run(l.name, func(t *testing.T) {
			cut := make(chan time.Duration, 1)
			srv := newHTTPServer("", withBigResponse(l.h, cut), d)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			defer func() {
				srv.Close()
				if err := <-done; !errors.Is(err, http.ErrServerClosed) {
					t.Errorf("Serve returned %v", err)
				}
			}()
			addr := ln.Addr().String()

			resp, err := http.Get("http://" + addr + l.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s = %d", l.path, resp.StatusCode)
			}

			head := "POST " + l.path + " HTTP/1.1\r\nHost: x\r\n"
			for _, c := range []struct {
				name          string
				prefix, drip  string
				after, before time.Duration
			}{
				{"slow headers", head, "X-Drip: 1\r\n", d.readHeader, d.read},
				{"slow body", head + "Content-Length: 100000\r\n\r\n", "a", d.read, 5 * time.Second},
				{"idle keep-alive", "GET " + l.path + " HTTP/1.1\r\nHost: x\r\n\r\n", "", d.idle, d.read},
			} {
				took := dropTime(t, addr, c.prefix, c.drip, 5*time.Second)
				if took < c.after || took >= c.before {
					t.Errorf("%s: dropped after %v, want [%v, %v)", c.name, took, c.after, c.before)
				}
			}

			// The write deadline is counted from the end of the request
			// headers, so the blocked write fails just short of it.
			got := unreadBytes(t, addr, d.write+300*time.Millisecond)
			select {
			case took := <-cut:
				if took < d.write-100*time.Millisecond || took >= d.write+time.Second {
					t.Errorf("unread response: write failed after %v, want about %v", took, d.write)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("unread response: the write never failed")
			}
			if got >= bigBody {
				t.Errorf("unread response: %d bytes arrived, want the response cut short of %d", got, bigBody)
			}
		})
	}
}

// unreadBytes asks addr for /big and reads nothing for wait; then it
// drains the connection and returns how many bytes arrived before the
// server closed it, failing the test if it stays open.
func unreadBytes(t *testing.T, addr string, wait time.Duration) int64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /big HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(wait)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("unread response: connection still open after %d bytes", n)
	}
	return n
}

// dropTime connects to addr, writes prefix, then writes drip every 20 ms
// (or nothing, when drip is empty) and reads whatever the server answers,
// until the server closes the connection; it returns how long that took,
// and fails the test if the connection outlives limit.
func dropTime(t *testing.T, addr, prefix, drip string, limit time.Duration) time.Duration {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, prefix); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for time.Since(start) < limit {
		if drip != "" {
			if _, err := io.WriteString(conn, drip); err != nil {
				return time.Since(start) // the server has closed it
			}
		}
		if err := conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		_, err := r.ReadString('\n')
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return time.Since(start) // EOF or reset: dropped
		}
	}
	t.Fatalf("%q... still open after %v", strings.SplitN(prefix, "\r\n", 2)[0], limit)
	return 0
}
