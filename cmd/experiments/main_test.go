package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRunNothingToDo(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{}, &out); err == nil {
		t.Error("empty invocation accepted")
	}
}

func TestRunUnknownArtifacts(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-table", "9"}, &out); err == nil {
		t.Error("unknown table accepted")
	}
	if err := run(context.Background(), []string{"-fig", "42"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run(context.Background(), []string{"-table", "abc"}, &out); err == nil {
		t.Error("non-numeric table accepted")
	}
}

func TestRunTablesOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-table", "1", "-table", "2", "-scale", "7000"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table 1", "Table 2", "phi", "4KB-512KB"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSmallFigure(t *testing.T) {
	// Fig 8 is the cheapest figure; run it at an aggressive scale into a
	// persistent dir to exercise the -dir path too.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "8", "-scale", "7000", "-dir", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 8") || !strings.Contains(out.String(), "CPU/GPU") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunAblations(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-ablations", "-scale", "7000"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Ablations", "baseline", "mmap backend", "no pipelining"} {
		if !strings.Contains(s, want) {
			t.Errorf("ablations output missing %q", want)
		}
	}
}
