package main

import (
	"errors"
	"net"
	"testing"
)

// brokenListener is a listener whose Accept fails for good.
type brokenListener struct{ net.Listener }

var errAcceptBroken = errors.New("accept: too many open files")

func (brokenListener) Accept() (net.Conn, error) { return nil, errAcceptBroken }

// TestFailedListenerExitsNonZero: when the listener fails, run returns
// its error, so the process exits non-zero and a supervisor sees it.
func TestFailedListenerExitsNonZero(t *testing.T) {
	defer func(orig func(string, string) (net.Listener, error)) { listen = orig }(listen)
	listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		return brokenListener{ln}, err
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-replicas", "127.0.0.1:1"}); !errors.Is(err, errAcceptBroken) {
		t.Fatalf("run over a failing listener returned %v, want its error", err)
	}
}
