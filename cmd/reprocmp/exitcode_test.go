package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/compare"
)

const (
	ck1 = "run1/iter0010.rank000.ckpt"
	ck2 = "run2/iter0010.rank000.ckpt"
)

// hashBoth builds metadata for both seeded runs.
func hashBoth(t *testing.T, dir string) {
	t.Helper()
	var out bytes.Buffer
	for _, ck := range []string{ck1, ck2} {
		if err := run(context.Background(), []string{"hash", "-store", dir, "-ckpt", ck,
			"-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptCheckpoint flips one high exponent bit every 256 bytes of the
// checkpoint's data region on disk, after metadata was built — every chunk
// re-reads corrupt, so with -degrade every candidate chunk goes Unverified.
func corruptCheckpoint(t *testing.T, dir, name string) {
	t.Helper()
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	r, err := repro.OpenCheckpoint(store, name)
	if err != nil {
		t.Fatal(err)
	}
	dataStart := r.FieldFileOffset(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, filepath.FromSlash(name))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := dataStart + 3; off < int64(len(raw)); off += 256 {
		raw[off] ^= 0x40
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictPrecedence(t *testing.T) {
	if err := verdict(compare.Outcome{Diverged: true, Degraded: true}); !errors.Is(err, errDivergent) {
		t.Errorf("proven divergence must win over degradation, got %v", err)
	}
	if err := verdict(compare.Outcome{Diverged: false, Degraded: true}); !errors.Is(err, errDegraded) {
		t.Errorf("degraded-only = %v, want errDegraded", err)
	}
	if err := verdict(compare.Outcome{Diverged: false, Degraded: false}); err != nil {
		t.Errorf("clean = %v, want nil", err)
	}
}

// TestExitCodeContractCompare walks the compare subcommand through all
// four exit classes: clean match, proven divergence, degraded
// inconclusive, and operational error.
func TestExitCodeContractCompare(t *testing.T) {
	var out bytes.Buffer

	// Clean match -> nil (exit 0).
	clean := seedStore(t, false)
	hashBoth(t, clean)
	if err := run(context.Background(), []string{"compare", "-store", clean, "-a", ck1, "-b", ck2,
		"-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
		t.Errorf("clean match error = %v, want nil", err)
	}

	// Proven divergence -> errDivergent (exit 2).
	div := seedStore(t, true)
	hashBoth(t, div)
	if err := run(context.Background(), []string{"compare", "-store", div, "-a", ck1, "-b", ck2,
		"-eps", "1e-5", "-chunk", "4096"}, &out); !errors.Is(err, errDivergent) {
		t.Errorf("divergence error = %v, want errDivergent", err)
	}

	// Degraded, no proven divergence -> errDegraded (exit 3): all of
	// run2's chunks fail integrity verification, so the divergent
	// candidates are excluded from diffing and the verdict is
	// inconclusive rather than clean.
	corruptCheckpoint(t, div, ck2)
	out.Reset()
	err := run(context.Background(), []string{"compare", "-store", div, "-a", ck1, "-b", ck2,
		"-eps", "1e-5", "-chunk", "4096", "-degrade"}, &out)
	if !errors.Is(err, errDegraded) {
		t.Errorf("degraded error = %v, want errDegraded", err)
	}
	if !strings.Contains(out.String(), "DEGRADED") {
		t.Errorf("degraded output missing marker: %s", out.String())
	}

	// Operational error -> plain error (exit 1), never the verdict
	// sentinels.
	err = run(context.Background(), []string{"compare", "-store", t.TempDir(), "-a", ck1, "-b", ck2,
		"-eps", "1e-5"}, &out)
	if err == nil || errors.Is(err, errDivergent) || errors.Is(err, errDegraded) {
		t.Errorf("operational error = %v, want a plain failure", err)
	}
}

// TestExitCodeContractGroup covers the same contract through the group
// subcommand.
func TestExitCodeContractGroup(t *testing.T) {
	var out bytes.Buffer

	clean := seedStore(t, false)
	hashBoth(t, clean)
	if err := run(context.Background(), []string{"group", "-store", clean, "-baseline", ck1,
		"-runs", ck2, "-eps", "1e-5", "-chunk", "4096"}, &out); err != nil {
		t.Errorf("clean group error = %v, want nil", err)
	}

	div := seedStore(t, true)
	hashBoth(t, div)
	if err := run(context.Background(), []string{"group", "-store", div, "-baseline", ck1,
		"-runs", ck2, "-eps", "1e-5", "-chunk", "4096"}, &out); !errors.Is(err, errDivergent) {
		t.Errorf("divergent group error = %v, want errDivergent", err)
	}

	corruptCheckpoint(t, div, ck2)
	out.Reset()
	err := run(context.Background(), []string{"group", "-store", div, "-baseline", ck1,
		"-runs", ck2, "-eps", "1e-5", "-chunk", "4096", "-degrade"}, &out)
	if !errors.Is(err, errDegraded) {
		t.Errorf("degraded group error = %v, want errDegraded", err)
	}
	if !strings.Contains(out.String(), "DEGRADED") {
		t.Errorf("degraded group output missing marker: %s", out.String())
	}

	// Strict mode on the corrupt store still completes (no integrity
	// check) but must not report the degraded verdict.
	err = run(context.Background(), []string{"group", "-store", div, "-baseline", ck1,
		"-runs", ck2, "-eps", "1e-5", "-chunk", "4096"}, &out)
	if errors.Is(err, errDegraded) {
		t.Errorf("strict group returned degraded verdict: %v", err)
	}

	err = run(context.Background(), []string{"group", "-store", t.TempDir(), "-baseline", ck1,
		"-runs", ck2, "-eps", "1e-5"}, &out)
	if err == nil || errors.Is(err, errDivergent) || errors.Is(err, errDegraded) {
		t.Errorf("operational group error = %v, want a plain failure", err)
	}
}

// TestExitCodeContractHistory covers the degraded verdict through the
// history subcommand.
func TestExitCodeContractHistory(t *testing.T) {
	var out bytes.Buffer
	div := seedStore(t, true)
	hashBoth(t, div)
	corruptCheckpoint(t, div, ck2)
	err := run(context.Background(), []string{"history", "-store", div, "-runa", "run1", "-runb", "run2",
		"-eps", "1e-5", "-chunk", "4096", "-degrade"}, &out)
	if !errors.Is(err, errDegraded) {
		t.Errorf("degraded history error = %v, want errDegraded", err)
	}
	if !strings.Contains(out.String(), "inconclusive") {
		t.Errorf("degraded history output: %s", out.String())
	}
}
