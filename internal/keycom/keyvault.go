package keycom

// The durable keystore. KeyCOM's catalogue state became crash-safe via
// snapshot + WAL; the keys the catalogue's principals actually sign
// with lived only in memory (or in ad-hoc keys.Save files with no
// atomicity story). KeyVault closes that gap with the same machinery
// and the same invariant — recovered state is exactly the acknowledged
// history:
//
//	vault.json — every registered key pair as of some acknowledged
//	             sequence number (atomically replaced: tmp + fsync +
//	             rename);
//	vault.wal  — one checksummed frame per key registered since the
//	             snapshot, fsynced before Put is acknowledged.
//
// Recovery loads the snapshot, replays the contiguous WAL suffix,
// truncates a torn tail (a crash mid-append loses only the
// unacknowledged key), and refuses a sequence gap in acknowledged
// history. Private keys are stored hex-encoded exactly as keys.Save
// writes them; the vault directory and its files are created 0700/0600.

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// Vault file names within the vault directory.
const (
	vaultSnapName = "vault.json"
	vaultWALName  = "vault.wal"
)

// vaultRecord is one WAL frame: a single registered key pair.
type vaultRecord struct {
	Seq     uint64 `json:"seq"`
	Name    string `json:"name"`
	Public  string `json:"public"`
	Private string `json:"private,omitempty"`
}

// vaultSnapshot is the vault.json payload.
type vaultSnapshot struct {
	Seq  uint64        `json:"seq"`
	Keys []vaultRecord `json:"keys"`
}

// KeyVaultOptions configures OpenKeyVault. The zero value is usable:
// real disk, default snapshot cadence, no telemetry.
type KeyVaultOptions struct {
	// FS is the filesystem the vault lives on. Nil means the real disk;
	// chaos tests pass a faultfs.MemFS.
	FS faultfs.FS
	// Tel receives WAL and recovery metrics. Nil disables.
	Tel *telemetry.Registry
	// SnapshotEvery is the number of Puts between automatic snapshots;
	// 0 means DefaultSnapshotEvery, negative disables automatic
	// snapshots.
	SnapshotEvery int
}

// VaultRecovery reports what OpenKeyVault found and repaired.
type VaultRecovery struct {
	// SnapshotSeq is the sequence number the snapshot covered (0 if no
	// snapshot existed).
	SnapshotSeq uint64
	// Replayed counts WAL records replayed past the snapshot.
	Replayed int
	// TornWALBytes is the length of the discarded torn WAL tail.
	TornWALBytes int64
}

// KeyVault is a durable, crash-safe keys.KeyStore: every Put is
// WAL-appended and fsynced before it is acknowledged. Safe for
// concurrent use; reads go straight to the in-memory store.
type KeyVault struct {
	dir       string
	fs        faultfs.FS
	tel       *telemetry.Registry
	snapEvery int

	mu        sync.Mutex
	store     *keys.KeyStore
	seq       uint64
	recs      []vaultRecord // acknowledged records, snapshot order
	wal       *wal
	sinceSnap int
	broken    error
	rec       VaultRecovery
}

// OpenKeyVault opens (creating if absent) the vault in dir and recovers
// it to the last acknowledged key.
func OpenKeyVault(dir string, opts KeyVaultOptions) (*KeyVault, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotEvery
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("keycom: vault dir: %w", err)
	}
	v := &KeyVault{
		dir:       dir,
		fs:        fsys,
		tel:       opts.Tel,
		snapEvery: snapEvery,
		store:     keys.NewKeyStore(),
	}
	// A crash mid-snapshot strands the tmp file; it was never renamed,
	// so it is dead weight.
	tmp := v.path(vaultSnapName) + ".tmp"
	if _, err := fsys.Stat(tmp); err == nil {
		_ = fsys.Remove(tmp)
	}
	if err := v.recover(); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *KeyVault) path(name string) string { return filepath.Join(v.dir, name) }

// recover loads snapshot + WAL into memory, truncating a torn tail and
// refusing a sequence gap in acknowledged history.
func (v *KeyVault) recover() error {
	var base uint64
	if data, err := v.fs.ReadFile(v.path(vaultSnapName)); err == nil {
		var snap vaultSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("keycom: vault snapshot unreadable: %w", err)
		}
		for _, r := range snap.Keys {
			kp, err := recordKeyPair(r)
			if err != nil {
				return fmt.Errorf("keycom: vault snapshot: %w", err)
			}
			v.store.Add(kp)
			v.recs = append(v.recs, r)
		}
		base = snap.Seq
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("keycom: read vault snapshot: %w", err)
	}
	v.rec.SnapshotSeq = base
	v.seq = base

	walData, err := v.fs.ReadFile(v.path(vaultWALName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("keycom: read vault wal: %w", err)
	}
	last := base
	var scanErr error
	good := scanFrames(walData, func(payload []byte) bool {
		var r vaultRecord
		if json.Unmarshal(payload, &r) != nil {
			return false
		}
		if r.Seq <= base {
			return true // pre-snapshot history awaiting truncation
		}
		if r.Seq != last+1 {
			scanErr = fmt.Errorf("%w: vault record seq %d after %d", ErrWALCorrupt, r.Seq, last)
			return false
		}
		kp, err := recordKeyPair(r)
		if err != nil {
			scanErr = fmt.Errorf("%w: vault record %d: %v", ErrWALCorrupt, r.Seq, err)
			return false
		}
		last = r.Seq
		v.store.Add(kp)
		v.recs = append(v.recs, r)
		v.rec.Replayed++
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	// Unlike the catalogue store, the vault has no audit chain to
	// cross-check replay length against, so mid-history damage must be
	// caught here: a genuine crash tears at most the final append.
	if !tornTailIsFinal(walData[good:]) {
		return fmt.Errorf("%w: intact frames beyond a damaged record", ErrWALCorrupt)
	}
	v.seq = last
	v.rec.TornWALBytes = int64(len(walData) - good)

	w, err := openWAL(v.fs, v.path(vaultWALName), int64(good), v.tel, "keycom.vault.wal")
	if err != nil {
		return err
	}
	if err := w.rewind(int64(good)); err != nil {
		w.close()
		return fmt.Errorf("keycom: truncate torn vault wal tail: %w", err)
	}
	v.wal = w
	v.tel.Counter("keycom.vault.replayed").Add(int64(v.rec.Replayed))
	v.tel.Counter("keycom.vault.torn.bytes").Add(v.rec.TornWALBytes)
	return nil
}

// recordKeyPair rebuilds and validates one key pair from its record,
// with the same checks keys.Load applies to a key file: a private half
// that is malformed or does not derive the public half is corruption,
// not a usable key.
func recordKeyPair(r vaultRecord) (*keys.KeyPair, error) {
	pub, err := keys.DecodePublic(r.Public)
	if err != nil {
		return nil, err
	}
	kp := &keys.KeyPair{Name: r.Name, Public: pub}
	if r.Private != "" {
		raw, err := hex.DecodeString(r.Private)
		if err != nil || len(raw) != ed25519.PrivateKeySize {
			return nil, fmt.Errorf("malformed private key for %q", r.Name)
		}
		kp.Private = ed25519.PrivateKey(raw)
		if keys.EncodePublic(kp.Private.Public().(ed25519.PublicKey)) != r.Public {
			return nil, fmt.Errorf("private key for %q does not match public key", r.Name)
		}
	}
	return kp, nil
}

// Store returns the live in-memory keystore view. Reads are always
// served from here; mutate only through Put so durability holds.
func (v *KeyVault) Store() *keys.KeyStore { return v.store }

// Put durably registers a key pair: the WAL frame is fsynced before Put
// returns, so an acknowledged key survives any crash. Re-registering a
// name replaces the binding (like keys.KeyStore.Add) and is logged as a
// fresh record.
func (v *KeyVault) Put(kp *keys.KeyPair) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.broken != nil {
		return fmt.Errorf("%w: %v", ErrStoreBroken, v.broken)
	}
	r := vaultRecord{Seq: v.seq + 1, Name: kp.Name, Public: kp.PublicID()}
	if kp.Private != nil {
		r.Private = hex.EncodeToString(kp.Private)
	}
	payload, err := json.Marshal(&r)
	if err != nil {
		return fmt.Errorf("keycom: encode vault record: %w", err)
	}
	if err := v.wal.appendFrame(encodeFrame(payload)); err != nil {
		if errors.Is(err, ErrLogUnusable) {
			v.broken = err
		}
		return err
	}
	v.store.Add(kp)
	v.seq = r.Seq
	v.recs = append(v.recs, r)
	v.sinceSnap++
	if v.snapEvery > 0 && v.sinceSnap >= v.snapEvery {
		if err := v.snapshotLocked(); err != nil {
			// The Put is already acknowledged; a failed snapshot only
			// means the WAL keeps growing until one succeeds.
			v.tel.Counter("keycom.vault.snapshot.errors").Inc()
		}
	}
	return nil
}

// Snapshot writes the full keystore to vault.json and truncates the
// WAL. Callers need no lock.
func (v *KeyVault) Snapshot() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.broken != nil {
		return fmt.Errorf("%w: %v", ErrStoreBroken, v.broken)
	}
	return v.snapshotLocked()
}

func (v *KeyVault) snapshotLocked() error {
	// Compact: a replaced binding's older records are dead weight — only
	// the last record per name survives into the snapshot.
	lastIdx := make(map[string]int, len(v.recs))
	for i, r := range v.recs {
		lastIdx[r.Name] = i
	}
	if len(lastIdx) < len(v.recs) {
		compact := make([]vaultRecord, 0, len(lastIdx))
		for i, r := range v.recs {
			if lastIdx[r.Name] == i {
				compact = append(compact, r)
			}
		}
		v.recs = compact
	}
	snap := vaultSnapshot{Seq: v.seq, Keys: v.recs}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("keycom: encode vault snapshot: %w", err)
	}
	tmp := v.path(vaultSnapName) + ".tmp"
	f, err := v.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("keycom: vault snapshot: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = v.fs.Remove(tmp)
		return fmt.Errorf("keycom: vault snapshot: %w", err)
	}
	if err := v.fs.Rename(tmp, v.path(vaultSnapName)); err != nil {
		_ = v.fs.Remove(tmp)
		return fmt.Errorf("keycom: vault snapshot rename: %w", err)
	}
	// As for the catalogue store: a failed truncate is benign, surviving
	// frames carry seq <= snapshot seq and replay skips them.
	if err := v.wal.rewind(0); err != nil {
		v.sinceSnap = 0
		return fmt.Errorf("keycom: truncate vault wal after snapshot: %w", err)
	}
	v.sinceSnap = 0
	v.tel.Counter("keycom.vault.snapshots").Inc()
	return nil
}

// Seq returns the last acknowledged sequence number.
func (v *KeyVault) Seq() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.seq
}

// RecoveryInfo reports what OpenKeyVault found and repaired.
func (v *KeyVault) RecoveryInfo() VaultRecovery {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rec
}

// Close closes the WAL. Every acknowledged Put is already durable, so
// Close flushes nothing.
func (v *KeyVault) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.wal != nil {
		return v.wal.close()
	}
	return nil
}
