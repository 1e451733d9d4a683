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

// Both listeners drop a client that trickles its headers (slowloris),
// one that trickles its body, and an idle keep-alive connection, each
// once its deadline has passed — while serving a well-behaved request.
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
			srv := newHTTPServer("", l.h, d)
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
		})
	}
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
