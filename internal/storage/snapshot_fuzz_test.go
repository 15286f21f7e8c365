package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// FuzzLoadSnapshot feeds arbitrary bytes to Open as snapshot.json. Open
// must never panic: it either refuses the file or yields a store whose
// change log lists exactly its live events.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	gone := event(f, "gone", [2]string{"domain", "gone.example"})
	if _, err := s.PutBatch([]*misp.Event{
		event(f, "a", [2]string{"domain", "a.example"}),
		event(f, "b", [2]string{"ip-dst", "203.0.113.9"}),
		gone,
	}, nil); err != nil {
		f.Fatal(err)
	}
	if err := s.Delete(gone.UUID); err != nil {
		f.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		f.Fatal(err)
	}
	s.Close()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:bytes.IndexByte(snap, '\n')+1]) // header only
	f.Add(snap[:len(snap)-5])                   // torn final record
	f.Add([]byte(`{"caisp_snapshot":1,"seq":1,"count":1}` + "\n" + `{"uuid":"x"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		defer s.Close()
		listed, _, _, err := s.ChangesPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(listed) != s.Len() {
			t.Fatalf("change log lists %d events, store holds %d", len(listed), s.Len())
		}
	})
}
