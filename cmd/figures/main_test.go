package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the command: given -fig, it
// runs main instead of the tests, which is how TestFiguresGolden runs the
// real flag parsing and output path without a separate build.
func TestMain(m *testing.M) {
	flag.Parse()
	asCommand := false
	flag.Visit(func(f *flag.Flag) { asCommand = asCommand || f.Name == "fig" })
	if asCommand {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFiguresGolden regenerates every figure at the recorded settings and
// holds the output to figures_output.txt byte for byte: a change that
// moves one draw, one table cell or one line of formatting fails here.
// Worker-count invariance and the 32-bit build are CI's diffs.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-fig", "all", "-runs", "10", "-seed", "2003", "-workers", "2")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("figures: %v\n%s", err, stderr.Bytes())
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("output diverges from figures_output.txt at line %d:\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("output has %d lines, figures_output.txt %d", len(gl), len(wl))
}
