package wire

// The newline-JSON wire format: one Request or Response object per line,
// encoded by encoding/json from the struct tags in wire.go. It is the
// protocol a person can speak with nc and a script can speak with any
// JSON library; no measured workload uses it, so it is written for
// obviousness, not speed. Decoding follows encoding/json: fields in any
// order, unknown fields skipped, whitespace tolerated, anything after the
// object an error.

import (
	"encoding/json"
	"fmt"
)

// AppendRequest appends req's JSON encoding — one object, no trailing
// newline — to dst and returns the extended slice. It marshals a copy:
// handing encoding/json the pointer would make every caller's Request
// escape to the heap, including in functions (the client's Conn.do) whose
// binary branch never gets here and is held to zero allocations.
func AppendRequest(dst []byte, req *Request) []byte {
	return appendJSON(dst, *req)
}

// AppendResponse appends resp's JSON encoding — one object, no trailing
// newline — to dst and returns the extended slice. Like AppendRequest it
// marshals a copy.
func AppendResponse(dst []byte, resp *Response) []byte {
	return appendJSON(dst, *resp)
}

func appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Request and Response hold only strings, integers, booleans and
		// a pointer to a struct of integers: Marshal cannot fail on them.
		panic(err)
	}
	return append(dst, b...)
}

// DecodeRequest parses one request line (without the newline) into req,
// overwriting every field.
func DecodeRequest(data []byte, req *Request) error {
	*req = Request{}
	if err := json.Unmarshal(data, req); err != nil {
		return fmt.Errorf("lockd: decoding request: %w", err)
	}
	return nil
}

// DecodeResponse parses one response line (without the newline) into
// resp, overwriting every field.
func DecodeResponse(data []byte, resp *Response) error {
	*resp = Response{}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("lockd: decoding response: %w", err)
	}
	return nil
}
