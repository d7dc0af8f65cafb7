package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunListMode(t *testing.T) {
	if err := run("", true, 16, 0, "", "", false, false, 0, nil); err != nil {
		t.Fatalf("list mode: %v", err)
	}
}

func TestRunRequiresID(t *testing.T) {
	if err := run("", false, 16, 0, "", "", false, false, 0, nil); err == nil {
		t.Error("missing -run accepted")
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := run("bogus", false, 16, 0, "", "", false, false, 0, nil); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestRunBadPs(t *testing.T) {
	if err := run("t3", false, 128, 0, "0.5,abc", "", false, false, 0, nil); err == nil {
		t.Error("malformed -ps accepted")
	}
}

func TestRunOneExperimentToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	out := filepath.Join(t.TempDir(), "t3.txt")
	if err := run("t3", false, 128, 0, "0.5", out, true, false, 0, nil); err != nil {
		t.Fatalf("run t3: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Table III") {
		t.Errorf("output missing Table III header:\n%s", data)
	}
}

func TestRunMarkdownMode(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	out := filepath.Join(t.TempDir(), "t3.md")
	if err := run("t3", false, 128, 0, "0.5", out, true, true, 0, nil); err != nil {
		t.Fatalf("run t3 -md: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "| p") || !strings.Contains(string(data), "|---|") {
		t.Errorf("markdown table markers missing:\n%s", data)
	}
}
