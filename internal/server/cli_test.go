package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServe starts the serve entry point on a free port, reads the URL it
// announces, checks /v1/healthz there, and cancels its context: it must
// exit 0 with the listener closed.
func TestServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		code := serve(ctx, []string{"-addr", "127.0.0.1:0", "-max-workers", "1"}, pw, io.Discard)
		pw.Close()
		exit <- code
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("serve printed nothing: %v", lines.Err())
	}
	const prefix = "sepriv serve: listening on "
	first := lines.Text()
	if !strings.HasPrefix(first, prefix) {
		t.Fatalf("first line %q, want the listening URL", first)
	}
	base := strings.TrimPrefix(first, prefix)
	go io.Copy(io.Discard, pr) // the rest of stdout

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exited %d after cancel, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after cancel")
	}
	if c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://")); err == nil {
		c.Close()
		t.Fatal("listener still accepts after serve returned")
	}
}
