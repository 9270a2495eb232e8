// Package dap speaks the Debug Adapter Protocol for ksimd sessions: the
// wire framing and message envelopes in this file, the session logic in
// adapter.go. The subset implemented is what an IDE needs to drive a
// simulation like a paused program — initialize/launch/attach,
// conditional and function (rule) breakpoints, forward and reverse
// stepping, a stack of the rules that fired, register inspection and
// pokes, and evaluate mapped to trace-store queries.
//
// DAP frames every JSON message with MIME-style headers, of which only
// Content-Length is meaningful:
//
//	Content-Length: 119\r\n
//	\r\n
//	{"seq":1,"type":"request","command":"initialize",...}
package dap

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxMessage bounds a single DAP message; none of our bodies (the largest
// is a full register dump) comes anywhere near it.
const maxMessage = 16 << 20

// request is an incoming client message. DAP clients only send requests.
type request struct {
	Seq       int             `json:"seq"`
	Type      string          `json:"type"`
	Command   string          `json:"command"`
	Arguments json.RawMessage `json:"arguments"`
}

// response answers one request. Success is deliberately not omitempty:
// "success":false must appear on the wire.
type response struct {
	Seq        int    `json:"seq"`
	Type       string `json:"type"` // always "response"
	RequestSeq int    `json:"request_seq"`
	Success    bool   `json:"success"`
	Command    string `json:"command"`
	Message    string `json:"message,omitempty"`
	Body       any    `json:"body,omitempty"`
}

// event is an adapter-initiated message (initialized, stopped, ...).
type event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // always "event"
	Event string `json:"event"`
	Body  any    `json:"body,omitempty"`
}

// readMessage reads one framed DAP payload.
func readMessage(r *bufio.Reader) ([]byte, error) {
	length := -1
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dap: bad Content-Length %q", strings.TrimSpace(v))
			}
			length = n
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("dap: message without Content-Length")
	}
	if length > maxMessage {
		return nil, fmt.Errorf("dap: %d-byte message exceeds the %d limit", length, maxMessage)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeMessage frames and writes one payload.
func writeMessage(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Content-Length: %d\r\n\r\n", len(payload)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}
