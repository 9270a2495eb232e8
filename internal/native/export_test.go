package native

// RawSnapshot asks the subprocess for its KSNP snapshot bytes, bypassing
// the mirror.
func (e *Engine) RawSnapshot() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp, err := e.callLocked('S', nil)
	return append([]byte(nil), resp...), err
}

// MirrorCurrent reports whether register reads and snapshots are served
// without a round trip.
func (e *Engine) MirrorCurrent() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mirrorOK
}
