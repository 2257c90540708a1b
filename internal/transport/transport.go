// Package transport is the runtime's pluggable wire stack: framed message
// connections between the requester and the service providers. The runtime
// (internal/runtime) speaks only the Transport/Conn/Listener interfaces
// here, so the same deployment code runs over real TCP sockets, over pure
// in-process channels (fast, race-clean tests), over trace-shaped links
// that charge the simulator's WiFi latency to every payload byte, or over
// a chaos decorator that deterministically drops, delays and partitions
// traffic for fault-injection tests.
//
// Stack composition is by wrapping: Shaped and Chaos decorate any inner
// transport, so "shaped inproc" (the simulator's network without socket
// timing noise) and "chaos tcp" are both one constructor call.
package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Requester is the device index of the service requester, mirroring
// network.Requester and runtime.RequesterID. Transports that need endpoint
// identities (shaped, chaos) accept it like any provider index.
const Requester = -1

// Message is the framed wire unit: rows [Lo,Hi) of generation Volume
// (VolInput = the input image, more negative values are control messages
// such as heartbeats; see sentinels.go) for one image. Payload carries the
// activation bytes.
type Message struct {
	Image   uint32
	Volume  int32
	Lo, Hi  int32
	Payload []byte
}

// control reports whether the message is a control message (heartbeats)
// rather than a data chunk. Codecs frame control messages like chunks but
// never transform their payloads, and transports never recycle them.
func (m *Message) control() bool { return m.Volume < VolInput }

// Conn is one directed framed connection. Send is safe for concurrent use;
// Recv must be called from a single reader goroutine. Closing either end
// fails subsequent Sends on both and makes Recv return an error once any
// already-delivered messages are drained.
type Conn interface {
	Send(m Message) error
	Recv() (Message, error)
	Close() error
}

// Listener accepts inbound connections for one endpoint. Addr returns the
// string other endpoints pass to Transport.Dial; its format is
// transport-specific and opaque to callers.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Transport creates listeners and dials peers. `self` is the caller's
// device index (Requester for the service requester); plain transports
// (tcp, inproc) ignore it, while decorators (shaped, chaos) use it to
// attribute traffic to the right link.
type Transport interface {
	Listen(self int) (Listener, error)
	Dial(self int, addr string) (Conn, error)
	Name() string
}

// ErrClosed is returned for operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// encodeDevAddr prefixes an inner address with the listener's device index
// so decorating transports can recover the destination endpoint at Dial
// time without a side-channel address registry.
func encodeDevAddr(dev int, addr string) string {
	return strconv.Itoa(dev) + "|" + addr
}

// splitDevAddr reverses encodeDevAddr.
func splitDevAddr(addr string) (int, string, error) {
	devSpec, rest, ok := strings.Cut(addr, "|")
	if !ok {
		return 0, "", fmt.Errorf("transport: address %q lacks a device prefix", addr)
	}
	dev, err := strconv.Atoi(devSpec)
	if err != nil {
		return 0, "", fmt.Errorf("transport: bad device in address %q: %v", addr, err)
	}
	return dev, rest, nil
}
