package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
)

// Store is the daemon's durable side: one directory per session holding a
// meta.json (how to rebuild the design and engine) and one .ksnp file per
// checkpoint (the sim.Snapshot wire format). Crash safety is layered:
// files are written to a temp name, fsynced, renamed into place, and the
// directory is fsynced, so a kill at any instant leaves either the old
// file or the new one — never a torn one. Anything that slips through
// (disk faults, bit rot, a pre-fsync kernel crash) is caught by the KSNP
// checksum on load and quarantined: the damaged file is renamed aside
// with a .corrupt suffix so later resurrections fall back to an older
// checkpoint instead of failing forever.
//
// All filesystem access goes through a faultinj.FS so the crash-safety
// tests can fail or tear any individual write deterministically.
type Store struct {
	dir string
	fs  faultinj.FS
}

// errMetaCorrupt marks a meta.json that exists but does not decode, so the
// resurrect path can distinguish "recipe lost" (quarantine, 410) from
// "session never existed" (404).
var errMetaCorrupt = errors.New("session meta corrupt")

// SessionMeta is everything needed to resurrect a session: the design (as
// posted source or a catalogue name) and the engine configuration.
type SessionMeta struct {
	ID      string       `json:"id"`
	Source  string       `json:"source,omitempty"`
	Catalog string       `json:"catalog,omitempty"`
	Config  EngineConfig `json:"config"`
	Created time.Time    `json:"created"`
	// Trace marks a session that was recording its trace when the meta was
	// written, so resurrection resumes the recording where it left off.
	Trace bool `json:"trace,omitempty"`
}

// OpenStore opens (creating if needed) a snapshot store rooted at dir on
// the real filesystem.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreFS(dir, faultinj.OS())
}

// OpenStoreFS opens a store over an explicit filesystem — the real one, or
// a fault-injecting wrapper in crash-safety tests.
func OpenStoreFS(dir string, fsys faultinj.FS) (*Store, error) {
	if err := fsys.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("server: open store: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

func (st *Store) sessionDir(id string) string {
	return filepath.Join(st.dir, "sessions", id)
}

// FS exposes the store's filesystem so subsystems that persist alongside
// checkpoints (the trace store) share its fault-injection wiring.
func (st *Store) FS() faultinj.FS { return st.fs }

// TraceDir is where a session's trace recording lives: a subdirectory of
// the session's own directory, so Remove retires the trace with the
// checkpoints and the recovery scan's name-based dispatch never mistakes
// trace chunks for snapshots.
func (st *Store) TraceDir(id string) (string, error) {
	if !validID(id) {
		return "", fmt.Errorf("server: invalid session id %q", id)
	}
	return filepath.Join(st.sessionDir(id), "trace"), nil
}

// validID keeps session and checkpoint ids path-safe: the ids are
// client-supplied on the resurrect path, so they must never traverse out of
// the store.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// atomicWrite lands data at path so that a crash at any point leaves either
// the previous content or the new content: write + fsync a temp file,
// rename it into place, fsync the directory so the rename itself is
// durable.
func (st *Store) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := st.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := st.fs.Sync(tmp); err != nil {
		return err
	}
	if err := st.fs.Rename(tmp, path); err != nil {
		return err
	}
	return st.fs.Sync(filepath.Dir(path))
}

// SaveMeta persists a session's rebuild recipe.
func (st *Store) SaveMeta(meta SessionMeta) error {
	if !validID(meta.ID) {
		return fmt.Errorf("server: invalid session id %q", meta.ID)
	}
	if err := st.fs.MkdirAll(st.sessionDir(meta.ID), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return st.atomicWrite(filepath.Join(st.sessionDir(meta.ID), "meta.json"), data)
}

// LoadMeta reads a session's rebuild recipe. A meta.json that exists but
// does not decode reports errMetaCorrupt (wrapped).
func (st *Store) LoadMeta(id string) (SessionMeta, error) {
	var meta SessionMeta
	if !validID(id) {
		return meta, fmt.Errorf("server: invalid session id %q", id)
	}
	data, err := st.fs.ReadFile(filepath.Join(st.sessionDir(id), "meta.json"))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("server: session %s: %w: %v", id, errMetaCorrupt, err)
	}
	return meta, nil
}

// HasSession reports whether any durable files exist for id, readable or
// not — the difference between "never heard of it" (404) and "its state
// was damaged" (410).
func (st *Store) HasSession(id string) bool {
	if !validID(id) {
		return false
	}
	entries, err := st.fs.ReadDir(st.sessionDir(id))
	return err == nil && len(entries) > 0
}

// SaveSnapshot persists one checkpoint's encoded snapshot bytes.
func (st *Store) SaveSnapshot(id, ckpt string, data []byte) error {
	if !validID(id) || !validID(ckpt) {
		return fmt.Errorf("server: invalid checkpoint %s/%s", id, ckpt)
	}
	return st.atomicWrite(filepath.Join(st.sessionDir(id), ckpt+".ksnp"), data)
}

// LoadSnapshot reads one checkpoint's encoded snapshot bytes.
func (st *Store) LoadSnapshot(id, ckpt string) ([]byte, error) {
	if !validID(id) || !validID(ckpt) {
		return nil, fmt.Errorf("server: invalid checkpoint %s/%s", id, ckpt)
	}
	return st.fs.ReadFile(filepath.Join(st.sessionDir(id), ckpt+".ksnp"))
}

// QuarantineSnapshot renames a checkpoint that failed to decode to
// <ckpt>.ksnp.corrupt: it drops out of Checkpoints so resurrection falls
// back to an older checkpoint, but the bytes stay on disk for forensics.
func (st *Store) QuarantineSnapshot(id, ckpt string) error {
	if !validID(id) || !validID(ckpt) {
		return fmt.Errorf("server: invalid checkpoint %s/%s", id, ckpt)
	}
	path := filepath.Join(st.sessionDir(id), ckpt+".ksnp")
	return st.fs.Rename(path, path+".corrupt")
}

// QuarantineMeta renames an undecodable meta.json aside. The session's
// rebuild recipe is lost — resurrection honestly reports 410 — but its
// checkpoints and the damaged recipe remain inspectable.
func (st *Store) QuarantineMeta(id string) error {
	if !validID(id) {
		return fmt.Errorf("server: invalid session id %q", id)
	}
	path := filepath.Join(st.sessionDir(id), "meta.json")
	return st.fs.Rename(path, path+".corrupt")
}

// SaveDiagnostic writes a forensic file (panic report, diagnostic
// snapshot) into a session's directory. Names must be plain file names;
// anything ending in .ksnp is rejected so diagnostics can never be
// mistaken for restorable checkpoints.
func (st *Store) SaveDiagnostic(id, name string, data []byte) error {
	if !validID(id) {
		return fmt.Errorf("server: invalid session id %q", id)
	}
	if name == "" || filepath.Base(name) != name || strings.HasSuffix(name, ".ksnp") {
		return fmt.Errorf("server: invalid diagnostic name %q", name)
	}
	if err := st.fs.MkdirAll(st.sessionDir(id), 0o755); err != nil {
		return err
	}
	return st.atomicWrite(filepath.Join(st.sessionDir(id), name), data)
}

// Checkpoints lists a session's stored checkpoints, oldest cycle first.
// Quarantined (.corrupt), temporary (.tmp), and diagnostic files do not
// appear.
func (st *Store) Checkpoints(id string) ([]string, error) {
	if !validID(id) {
		return nil, fmt.Errorf("server: invalid session id %q", id)
	}
	entries, err := st.fs.ReadDir(st.sessionDir(id))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".ksnp"); ok {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return ckptCycle(out[i]) < ckptCycle(out[j]) })
	return out, nil
}

// ckptCycle extracts the cycle number from a "c<cycle>" checkpoint id (the
// ids the daemon itself mints); foreign names sort first.
func ckptCycle(ckpt string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(ckpt, "c"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Sessions lists every stored session id.
func (st *Store) Sessions() ([]string, error) {
	entries, err := st.fs.ReadDir(filepath.Join(st.dir, "sessions"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes a stored session and all its checkpoints.
func (st *Store) Remove(id string) error {
	if !validID(id) {
		return fmt.Errorf("server: invalid session id %q", id)
	}
	return st.fs.RemoveAll(st.sessionDir(id))
}

// RecoverReport summarizes a startup recovery scan.
type RecoverReport struct {
	// Sessions is how many stored sessions were scanned.
	Sessions int
	// TmpFiles lists removed leftover temp files (a crash mid-write).
	TmpFiles []string
	// CorruptSnapshots lists quarantined checkpoints as "session/ckpt".
	CorruptSnapshots []string
	// CorruptMetas lists sessions whose meta.json was quarantined.
	CorruptMetas []string
}

// Clean reports whether the scan found nothing to repair.
func (r RecoverReport) Clean() bool {
	return len(r.TmpFiles) == 0 && len(r.CorruptSnapshots) == 0 && len(r.CorruptMetas) == 0
}

func (r RecoverReport) String() string {
	return fmt.Sprintf("%d sessions scanned, %d tmp files removed, %d corrupt checkpoints quarantined, %d corrupt metas quarantined",
		r.Sessions, len(r.TmpFiles), len(r.CorruptSnapshots), len(r.CorruptMetas))
}

// Recover scans the whole store after a crash: leftover .tmp files (a kill
// mid-write; the rename never happened, so they are garbage) are removed,
// and every meta.json and .ksnp checkpoint is decoded — anything
// unreadable is quarantined now, at startup, rather than discovered as a
// 500 on some future resurrection. The scan is idempotent; running it on a
// clean store changes nothing.
func (st *Store) Recover() (RecoverReport, error) {
	var rep RecoverReport
	ids, err := st.Sessions()
	if err != nil {
		return rep, fmt.Errorf("server: recover scan: %w", err)
	}
	for _, id := range ids {
		rep.Sessions++
		dir := st.sessionDir(id)
		entries, err := st.fs.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e.Name()
			switch {
			case strings.HasSuffix(name, ".tmp"):
				if st.fs.Remove(filepath.Join(dir, name)) == nil {
					rep.TmpFiles = append(rep.TmpFiles, id+"/"+name)
				}
			case name == "meta.json":
				if _, err := st.LoadMeta(id); errors.Is(err, errMetaCorrupt) {
					if st.QuarantineMeta(id) == nil {
						rep.CorruptMetas = append(rep.CorruptMetas, id)
					}
				}
			case strings.HasSuffix(name, ".ksnp"):
				ckpt := strings.TrimSuffix(name, ".ksnp")
				data, err := st.fs.ReadFile(filepath.Join(dir, name))
				var snap sim.Snapshot
				if err == nil {
					err = snap.UnmarshalBinary(data)
				}
				if err != nil {
					if st.QuarantineSnapshot(id, ckpt) == nil {
						rep.CorruptSnapshots = append(rep.CorruptSnapshots, id+"/"+ckpt)
					}
				}
			}
		}
	}
	return rep, nil
}
