package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunWorkerRejectsUnusableCheckpointDir pins that a worker whose
// checkpoint directory cannot be created exits at start-up, before it
// registers with a coordinator, instead of silently dropping every
// checkpoint it captures.
func TestRunWorkerRejectsUnusableCheckpointDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runWorker("http://127.0.0.1:1", "w", 1, 0, filepath.Join(file, "checkpoints"), "", 0); code != 2 {
		t.Errorf("runWorker exit code = %d, want 2", code)
	}
}
