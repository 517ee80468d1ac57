package keycom

// Rewind-failure paths: an append that fails leaves the log rewound to
// its last acknowledged frame; an append whose rewind fails too must
// surface ErrLogUnusable and break its owner, so no later append lands
// behind a partial frame.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/keys"
)

var errInjected = errors.New("injected I/O failure")

// breakingFS fails every Write to the armed file, and every Truncate of
// it too unless rewindOK is set.
type breakingFS struct {
	*faultfs.MemFS
	mu       sync.Mutex
	armed    string // base name of the failing file; "" when disarmed
	rewindOK bool
}

func (b *breakingFS) arm(name string, rewindOK bool) {
	b.mu.Lock()
	b.armed, b.rewindOK = name, rewindOK
	b.mu.Unlock()
}

func (b *breakingFS) fails(name string, truncate bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armed != "" && filepath.Base(name) == b.armed && !(truncate && b.rewindOK)
}

func (b *breakingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := b.MemFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &breakingFile{File: f, fs: b}, nil
}

type breakingFile struct {
	faultfs.File
	fs *breakingFS
}

func (f *breakingFile) Write(p []byte) (int, error) {
	if f.fs.fails(f.Name(), false) {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f *breakingFile) Truncate(size int64) error {
	if f.fs.fails(f.Name(), true) {
		return errInjected
	}
	return f.File.Truncate(size)
}

func TestStoreRewindFailureBreaksStore(t *testing.T) {
	cases := []struct {
		name     string
		file     string
		rewindOK bool
	}{
		{"wal rewind fails", walFileName, false},
		{"audit rewind fails", auditFileName, false},
		{"wal rewind succeeds", walFileName, true},
		{"audit rewind succeeds", auditFileName, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := &breakingFS{MemFS: faultfs.NewMemFS()}
			st := mustOpen(t, fs, StoreOptions{SnapshotEvery: -1})
			if _, err := st.Commit("admin", clerkDiff(0)); err != nil {
				t.Fatal(err)
			}

			fs.arm(tc.file, tc.rewindOK)
			_, err := st.Commit("admin", clerkDiff(1))
			if !errors.Is(err, errInjected) {
				t.Fatalf("commit err = %v, want the injected failure", err)
			}
			if got := errors.Is(err, ErrLogUnusable); got != !tc.rewindOK {
				t.Fatalf("errors.Is(%v, ErrLogUnusable) = %v, want %v", err, got, !tc.rewindOK)
			}

			fs.arm("", false)
			_, err = st.Commit("admin", clerkDiff(2))
			if tc.rewindOK {
				if err != nil {
					t.Fatalf("commit after a clean rewind: %v", err)
				}
				if st.Seq() != 2 {
					t.Fatalf("seq = %d, want 2", st.Seq())
				}
				return
			}
			if !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("commit after an unusable log: err = %v, want ErrStoreBroken", err)
			}
			if st.Seq() != 1 {
				t.Fatalf("seq = %d, want 1", st.Seq())
			}
		})
	}
}

func TestKeyVaultRewindFailureBreaksVault(t *testing.T) {
	for _, rewindOK := range []bool{false, true} {
		fs := &breakingFS{MemFS: faultfs.NewMemFS()}
		v, err := OpenKeyVault("vault", KeyVaultOptions{FS: fs, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Put(keys.Deterministic("K0", "rewind")); err != nil {
			t.Fatal(err)
		}

		fs.arm(vaultWALName, rewindOK)
		err = v.Put(keys.Deterministic("K1", "rewind"))
		if !errors.Is(err, errInjected) {
			t.Fatalf("rewindOK=%v: put err = %v, want the injected failure", rewindOK, err)
		}
		if got := errors.Is(err, ErrLogUnusable); got != !rewindOK {
			t.Fatalf("rewindOK=%v: errors.Is(%v, ErrLogUnusable) = %v", rewindOK, err, got)
		}

		fs.arm("", false)
		err = v.Put(keys.Deterministic("K2", "rewind"))
		if rewindOK && err != nil {
			t.Fatalf("put after a clean rewind: %v", err)
		}
		if !rewindOK && !errors.Is(err, ErrStoreBroken) {
			t.Fatalf("put after an unusable log: err = %v, want ErrStoreBroken", err)
		}
	}
}
