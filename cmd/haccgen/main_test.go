package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
)

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{}, &out); err == nil {
		t.Error("missing -store accepted")
	}
	if err := run(context.Background(), []string{"-store", t.TempDir(), "-steps", "0"}, &out); err == nil {
		t.Error("steps=0 accepted")
	}
	if err := run(context.Background(), []string{"-store", t.TempDir(), "-every", "-1"}, &out); err == nil {
		t.Error("negative -every accepted")
	}
}

func TestSerialGeneration(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-store", dir, "-particles", "600", "-grid", "16",
		"-steps", "4", "-every", "2", "-hash", "-eps", "1e-6", "-chunk", "4096"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "metadata built for 2 checkpoints") {
		t.Errorf("output: %s", out.String())
	}
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, runID := range []string{"run1", "run2"} {
		h, err := repro.History(store, runID)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != 2 {
			t.Errorf("%s history = %v", runID, h)
		}
		for _, n := range h {
			if _, err := repro.LoadMetadata(context.Background(), store, n); err != nil {
				t.Errorf("metadata missing for %s: %v", n, err)
			}
		}
	}
}

func TestParallelGeneration(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-store", dir, "-particles", "400", "-grid", "16",
		"-steps", "2", "-every", "2", "-ranks", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	store, err := repro.NewStore(dir, repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	h, err := repro.History(store, "run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 { // one iteration × two ranks
		t.Errorf("parallel history = %v", h)
	}
}
