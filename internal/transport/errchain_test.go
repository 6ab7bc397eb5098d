package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"mobweb/internal/corpus"
)

// refuseAll is an admitter with no capacity.
type refuseAll struct{}

func (refuseAll) Admit(bool) (func(), time.Duration, bool) { return nil, 40 * time.Millisecond, false }

// droppingPeer returns a client dialled to a server that reads one
// request line, closes the connection and stops listening: a link that
// dies mid-round and stays down.
func droppingPeer(t *testing.T) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		readReq(bufio.NewReader(conn))
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}
	t.Cleanup(func() { c.Close() })
	return c
}

// pipePeer returns a client whose server is script, run on the other end
// of a net.Pipe once the client's first request record has arrived.
func pipePeer(t *testing.T, script func(peer net.Conn)) *Client {
	t.Helper()
	end, peer := net.Pipe()
	go func() {
		defer peer.Close()
		if _, err := readReq(bufio.NewReader(peer)); err != nil {
			return
		}
		script(peer)
	}()
	c := NewClient(end)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientErrorChains holds every terminal error the client returns
// to what callers test it for: each wrap on the way out keeps the
// sentinel reachable through errors.Is and the concrete error through
// errors.As. ErrorClass, the fetch log and the gateway's status mapping
// all read these chains.
func TestClientErrorChains(t *testing.T) {
	fetch := FetchOptions{Doc: corpus.DraftName, Caching: true}
	reply := func(line []byte) func(net.Conn) {
		return func(peer net.Conn) { peer.Write(line) }
	}
	isDialError := func(err error) bool {
		var op *net.OpError
		return errors.As(err, &op) && op.Op == "dial"
	}
	isRefusal := func(err error) bool {
		var r refusal
		return errors.As(err, &r)
	}
	isShedError := func(err error) bool {
		var se *ShedError
		return errors.As(err, &se) && se.RetryAfter > 0
	}

	for _, c := range []struct {
		name string
		run  func(t *testing.T) error
		is   []error
		as   []func(error) bool
	}{
		{
			name: "dial refused",
			run: func(t *testing.T) error {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr := ln.Addr().String()
				ln.Close()
				_, err = Dial(addr)
				return err
			},
			as: []func(error) bool{isDialError},
		},
		{
			name: "context canceled before the request",
			run: func(t *testing.T) error {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, err := pipePeer(t, func(net.Conn) {}).SearchContext(ctx, "mobile", 5)
				return err
			},
			is: []error{context.Canceled},
		},
		{
			name: "context deadline during the read",
			run: func(t *testing.T) error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				_, err := pipePeer(t, func(peer net.Conn) { io.Copy(io.Discard, peer) }).SearchContext(ctx, "mobile", 5)
				return err
			},
			is: []error{context.DeadlineExceeded},
		},
		{
			name: "degraded replica",
			run: func(t *testing.T) error {
				c, err := Dial(startServerAddr(t, ServerOptions{Capability: NewCapabilityState(CapSearchOnly)}))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				_, err = c.Fetch(fetch)
				return err
			},
			is: []error{ErrDegraded},
		},
		{
			name: "refused",
			run: func(t *testing.T) error {
				c, err := Dial(startServerAddr(t, ServerOptions{}))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				_, err = c.Fetch(FetchOptions{Doc: "no-such-document.xml"})
				return err
			},
			as: []func(error) bool{isRefusal},
		},
		{
			name: "shed",
			run: func(t *testing.T) error {
				c, err := Dial(startServerAddr(t, ServerOptions{Admission: refuseAll{}}))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				_, err = c.Fetch(fetch)
				return err
			},
			is: []error{ErrShed},
			as: []func(error) bool{isShedError},
		},
		{
			name: "reconnection disabled",
			run: func(t *testing.T) error {
				c := droppingPeer(t)
				c.Retry = NoRetry
				_, err := c.Fetch(fetch)
				return err
			},
			is: []error{ErrDisconnected, io.EOF},
		},
		{
			name: "redial failed",
			run: func(t *testing.T) error {
				_, err := droppingPeer(t).Fetch(fetch)
				return err
			},
			is: []error{ErrDisconnected, io.EOF, syscall.ECONNREFUSED},
			as: []func(error) bool{isDialError},
		},
		{
			name: "prefetch redial failed",
			run: func(t *testing.T) error {
				_, err := droppingPeer(t).Prefetch(fetch, 10)
				return err
			},
			is: []error{ErrDisconnected, io.EOF, syscall.ECONNREFUSED},
			as: []func(error) bool{isDialError},
		},
		{
			name: "response without a layout",
			run: func(t *testing.T) error {
				_, err := pipePeer(t, reply(record(t, Response{OK: true}))).Fetch(fetch)
				return err
			},
			is: []error{ErrBadResponse},
		},
		{
			name: "response that does not parse",
			run: func(t *testing.T) error {
				// A response record whose field bits are cut short.
				_, err := pipePeer(t, reply([]byte{2, kindResponse, 0x80})).Fetch(fetch)
				return err
			},
			is: []error{ErrBadResponse},
		},
		{
			name: "response line too long",
			run: func(t *testing.T) error {
				oversized := binary.AppendUvarint(nil, MaxControlLine+1)
				_, err := pipePeer(t, reply(append(oversized, bytes.Repeat([]byte{kindResponse}, 4096)...))).Fetch(fetch)
				return err
			},
			is: []error{ErrBadResponse},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.run(t)
			if err == nil {
				t.Fatal("no error")
			}
			for _, target := range c.is {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(%v, %v) = false", err, target)
				}
			}
			for i, as := range c.as {
				if !as(err) {
					t.Errorf("errors.As check %d fails on %v", i, err)
				}
			}
		})
	}
}
