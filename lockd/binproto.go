package lockd

// The binary framing of the connection loop in transport.go: a preamble,
// then length-prefixed frames that each carry a batch of ops for one of
// the connection's multiplexed streams. What the Go client, the inter-node
// proxy connections and every measured workload speak.

import (
	"bufio"
	"errors"
	"io"

	"anonmutex/lockd/wire"
)

type binFraming struct {
	br    *bufio.Reader
	max   int             // 0: wire's default
	names *wire.NameTable // per-connection lock-name interning (byte-bounded)
	buf   []byte
	ops   []byte // the batch: what is left undecoded of the current frame
}

// speakBinary selects the binary framing and consumes the preamble. Any
// protocol error on this framing — bad preamble, oversized or malformed
// frame, unknown opcode, the reserved stream 0 — is answered on stream 0.
func (c *conn) speakBinary(br *bufio.Reader) error {
	c.f, c.mux = &binFraming{br: br, max: c.srv.MaxFrameBytes, names: wire.NewNameTable()}, true
	var preamble [wire.PreambleLen]byte
	if _, err := io.ReadFull(br, preamble[:]); err != nil {
		return err
	}
	hello, err := wire.ParsePreamble(preamble)
	if err != nil {
		return protocolError(err.Error())
	}
	c.fromProxy = hello&wire.HelloForwarded != 0
	return nil
}

func (f *binFraming) readBatch() (stream uint32, err error) {
	stream, f.ops, f.buf, err = wire.ReadFrame(f.br, f.buf, f.max)
	switch {
	case errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, wire.ErrShortFrame):
		err = protocolError(err.Error())
	case err == nil && stream == 0:
		err = protocolError("lockd: stream 0 is reserved")
	}
	return stream, err
}

func (f *binFraming) decodeOp(req *wire.Request) (ok bool, err error) {
	if len(f.ops) == 0 {
		return false, nil
	}
	f.ops, err = wire.DecodeRequestBin(f.ops, req, f.names)
	return true, err
}

func (f *binFraming) appendResponse(dst []byte, stream uint32, resp wire.Response) []byte {
	if len(dst) == 0 {
		dst = wire.BeginFrame(dst, stream)
	}
	return wire.EndFrame(wire.AppendResponseBin(dst, &resp), 0)
}
