package siege

import (
	"bytes"
	"fmt"
	"strconv"

	"cubicleos/internal/lwip"
)

// KAConn is a persistent (keep-alive) HTTP client connection. Unlike
// Fetch's HTTP/1.0 one-shot — where the server's close delimits the
// response — responses here are framed by Content-Length, so many
// requests ride one TCP connection, sequentially or pipelined. The
// cluster balancer reuses these connections per backend; keeping them
// warm is what makes hedged retries affordable.
type KAConn struct {
	Conn *lwip.PeerConn
	off  int // receive-buffer bytes consumed by already-parsed responses
	// SawClose latches once a response announced Connection: close (or
	// was HTTP/1.0 without keep-alive); no further requests should be
	// sent on the connection.
	SawClose bool
}

// OpenKA dials a keep-alive client connection to the server port. The
// TCP handshake completes asynchronously: drive the system and Pump the
// peer until Conn.Established before the first Request.
func (t *Target) OpenKA() *KAConn {
	return &KAConn{Conn: t.Peer.Connect(80)}
}

// Request sends GET path as HTTP/1.1 (keep-alive by default).
func (k *KAConn) Request(path string) {
	k.rewind()
	k.Conn.Send(getRequest(path, "HTTP/1.1"))
}

// rewind restarts the receive buffer once every byte in it has been
// parsed, so a connection holds the responses still being read, not every
// response it ever carried (the server allows 100 a connection).
func (k *KAConn) rewind() {
	if k.off > 0 && k.off == k.Conn.ReceivedLen() {
		k.Conn.DropReceived()
		k.off = 0
	}
}

// KAResponse is one response parsed off a keep-alive connection.
type KAResponse struct {
	Status int
	// Body is a view of the connection's receive buffer, valid until the
	// next Request or Next on the connection.
	Body []byte
	// Close reports that this response retires the connection.
	Close bool
}

// Next parses the next complete response out of the connection's receive
// buffer. It returns (nil, nil) when more bytes are needed — drive the
// system and Pump, then ask again.
func (k *KAConn) Next() (*KAResponse, error) {
	k.rewind()
	buf := k.Conn.Received()[k.off:]
	h, ok, err := parseHead(buf)
	if !ok || err != nil {
		return nil, err
	}
	clen, closing := -1, !bytes.HasPrefix(h.proto, []byte("HTTP/1.1"))
	for fields := h.fields; len(fields) > 0; {
		var line []byte
		line, fields, _ = bytes.Cut(fields, []byte("\r\n"))
		key, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(val)); err != nil {
				return nil, fmt.Errorf("siege: bad Content-Length %q", val)
			}
		case bytes.EqualFold(key, []byte("Connection")):
			closing = !bytes.EqualFold(val, []byte("keep-alive"))
		}
	}
	if clen < 0 {
		return nil, fmt.Errorf("siege: response without Content-Length: %.120q", buf[:h.bodyAt])
	}
	// Compared against what has arrived, not added to the header length:
	// the length is the server's word, and one near MaxInt64 must read as
	// "need more", not wrap into a slice bound.
	if clen > len(buf)-h.bodyAt {
		return nil, nil
	}
	total := h.bodyAt + clen
	k.off += total
	if closing {
		k.SawClose = true
	}
	return &KAResponse{Status: h.status, Body: buf[h.bodyAt:total:total], Close: closing}, nil
}
