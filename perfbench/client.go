package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// pipeConn is the load generator's RESP connection. It encodes pipelines
// into one reused buffer and parses replies in place, so a steady-state
// round trip allocates nothing and the client's garbage does not shape the
// server's tail latency.
type pipeConn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
}

func dialPipe(addr string) (*pipeConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &pipeConn{c: c, br: bufio.NewReaderSize(c, 64<<10), out: make([]byte, 0, 8<<10)}, nil
}

func (p *pipeConn) Close() error { return p.c.Close() }

// send writes the encoded pipeline and resets the buffer.
func (p *pipeConn) send() error {
	_, err := p.c.Write(p.out)
	p.out = p.out[:0]
	return err
}

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

func appendZScore(dst []byte, set, member []byte) []byte {
	dst = append(dst, "*3\r\n$6\r\nZSCORE\r\n"...)
	dst = appendBulk(dst, set)
	return appendBulk(dst, member)
}

func appendZAdd(dst []byte, set, member []byte, val uint64) []byte {
	dst = append(dst, "*4\r\n$4\r\nZADD\r\n"...)
	dst = appendBulk(dst, set)
	dst = appendBulk(dst, member)
	var num [20]byte
	return appendBulk(dst, strconv.AppendUint(num[:0], val, 10))
}

func appendPing(dst []byte) []byte { return append(dst, "*1\r\n$4\r\nPING\r\n"...) }

// reply is one parsed RESP reply. text aliases the connection's read
// buffer and is valid until the next read.
type reply struct {
	kind byte // '$' bulk, ':' integer, '+' simple, '-' error
	null bool
	num  uint64 // bulk parsed as a decimal, or the integer
	neg  bool   // integer reply was negative
	text []byte
}

// errProtocol marks a reply the client cannot frame; the connection is
// unusable afterwards.
var errProtocol = errors.New("malformed reply")

// maxBulk bounds the bulk replies the load generator accepts: every
// workload reply is a decimal score.
const maxBulk = 32

// readReply parses one reply from br without allocating.
func readReply(br *bufio.Reader) (reply, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, errProtocol
	}
	r := reply{kind: line[0], text: line[1 : len(line)-2]}
	switch r.kind {
	case '+', '-':
		return r, nil
	case ':':
		digits := r.text
		if len(digits) > 0 && digits[0] == '-' {
			r.neg, digits = true, digits[1:]
		}
		v, ok := parseDecimal(digits)
		if !ok {
			return reply{}, errProtocol
		}
		r.num = v
		return r, nil
	case '$':
		if string(r.text) == "-1" {
			r.null = true
			return r, nil
		}
		n, ok := parseDecimal(r.text)
		if !ok || n > maxBulk {
			return reply{}, errProtocol
		}
		body, err := br.Peek(int(n) + 2)
		if err != nil {
			return reply{}, err
		}
		if body[n] != '\r' || body[n+1] != '\n' {
			return reply{}, errProtocol
		}
		r.text = body[:n]
		v, numeric := parseDecimal(r.text)
		if _, err := br.Discard(int(n) + 2); err != nil {
			return reply{}, err
		}
		if !numeric {
			// A non-numeric bulk is a wrong answer, not a framing error.
			r.kind = '?'
			return r, nil
		}
		r.num = v
		return r, nil
	}
	return reply{}, errProtocol
}

// parseDecimal parses an unsigned decimal of 1 to 20 digits.
func parseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// checkScore accepts a ZSCORE reply only if it is the expected score.
func checkScore(r reply, want uint64) error {
	switch {
	case r.kind == '-':
		return fmt.Errorf("ZSCORE error reply %q", r.text)
	case r.kind != '$':
		return fmt.Errorf("ZSCORE: unexpected reply type %q", r.kind)
	case r.null:
		return errors.New("ZSCORE: member missing")
	case r.num != want:
		return fmt.Errorf("ZSCORE: got %d, want %d", r.num, want)
	}
	return nil
}

// checkAdded accepts a ZADD reply only if it is :1 (a new member).
func checkAdded(r reply) error {
	switch {
	case r.kind == '-':
		return fmt.Errorf("ZADD error reply %q", r.text)
	case r.kind != ':' || r.neg || r.num != 1:
		return fmt.Errorf("ZADD of a new member: got %c%s, want :1", r.kind, r.text)
	}
	return nil
}

// checkPong accepts only +PONG.
func checkPong(r reply) error {
	if r.kind != '+' || string(r.text) != "PONG" {
		return fmt.Errorf("PING: got %c%s, want +PONG", r.kind, r.text)
	}
	return nil
}
