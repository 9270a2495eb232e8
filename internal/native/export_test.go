package native

// Call sends one request frame with an arbitrary opcode through the
// engine's round-trip path and returns a copy of the reply payload.
func (e *Engine) Call(op byte, payload []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp, err := e.callLocked(op, payload)
	return append([]byte(nil), resp...), err
}
