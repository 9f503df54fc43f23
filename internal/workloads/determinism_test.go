package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"teasim/internal/isa"
)

var update = flag.Bool("update", false, "rewrite testdata/programs.txt")

// scales are the two input sizes the digest check covers: the tiny
// unit-test inputs and the benchmark default.
var scales = []int{0, 1}

// checkBuildDeterministic: building every workload twice at scale yields
// identical code, data, entry and base, so every simulation is
// reproducible.
func checkBuildDeterministic(t *testing.T, scale int) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			a, b := w.Build(scale), w.Build(scale)
			if !reflect.DeepEqual(a.Code, b.Code) {
				t.Fatalf("scale %d: code differs between builds", scale)
			}
			if !reflect.DeepEqual(a.Data, b.Data) {
				t.Fatalf("scale %d: data differs between builds", scale)
			}
			if a.Entry != b.Entry || a.CodeBase != b.CodeBase {
				t.Fatalf("scale %d: entry/base differ between builds", scale)
			}
		})
	}
}

// TestBuildDeterminism: builds at the unit-test scale are reproducible.
func TestBuildDeterminism(t *testing.T) { checkBuildDeterministic(t, 0) }

// TestBuildDeterministic: builds at the benchmark scale are reproducible.
func TestBuildDeterministic(t *testing.T) { checkBuildDeterministic(t, 1) }

// checkExpectedDeterministic: the native models are non-empty pure
// functions of scale, as reproducible as the µISA programs they validate.
func checkExpectedDeterministic(t *testing.T, scale int) {
	for _, w := range All() {
		a, b := w.Expected(scale), w.Expected(scale)
		if len(a) == 0 {
			t.Fatalf("%s: no expected results at scale %d", w.Name, scale)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Expected(%d) not deterministic: %v vs %v", w.Name, scale, a, b)
		}
	}
}

// TestExpectedDeterminism: the native models at the unit-test scale.
func TestExpectedDeterminism(t *testing.T) { checkExpectedDeterministic(t, 0) }

// TestExpectedDeterministic: the native models at the benchmark scale.
func TestExpectedDeterministic(t *testing.T) { checkExpectedDeterministic(t, 1) }

// programDigest is the SHA-256 of everything a simulation reads from a
// program: each instruction's fields, the code base, the entry point and
// every data segment's address, length and bytes. Labels are diagnostics
// only and are left out.
func programDigest(p *isa.Program) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(p.Code)))
	for _, in := range p.Code {
		h.Write([]byte{byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2)})
		word(uint64(in.Imm))
	}
	word(p.CodeBase)
	word(p.Entry)
	word(uint64(len(p.Data)))
	for _, seg := range p.Data {
		word(seg.Addr)
		word(uint64(len(seg.Bytes)))
		h.Write(seg.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProgramDigests pins every workload's program at both scales: the
// lines "workload scale sha256" must match testdata/programs.txt, so any
// change to input generation or code emission shows up as a digest diff.
// Regenerate with `go test ./internal/workloads -run TestProgramDigests -update`.
func TestProgramDigests(t *testing.T) {
	var sb strings.Builder
	for _, w := range All() {
		for _, scale := range scales {
			fmt.Fprintf(&sb, "%s %d %s\n", w.Name, scale, programDigest(w.Build(scale)))
		}
	}
	got := []byte(sb.String())

	path := filepath.Join("testdata", "programs.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/workloads -run TestProgramDigests -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed; got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestScalesDiffer: scale 0 and scale 1 are genuinely different inputs.
func TestScalesDiffer(t *testing.T) {
	for _, w := range All() {
		a := w.Build(0)
		b := w.Build(1)
		if len(a.Code) == 0 || len(b.Code) == 0 {
			t.Fatalf("%s: empty program", w.Name)
		}
		sameData := len(a.Data) == len(b.Data)
		if sameData {
			for i := range a.Data {
				if len(a.Data[i].Bytes) != len(b.Data[i].Bytes) {
					sameData = false
					break
				}
			}
		}
		// Either the data or the code must change with scale (iteration
		// counts are immediates in the code).
		sameCode := len(a.Code) == len(b.Code)
		if sameCode {
			for i := range a.Code {
				if a.Code[i] != b.Code[i] {
					sameCode = false
					break
				}
			}
		}
		if sameData && sameCode {
			t.Fatalf("%s: scale has no effect", w.Name)
		}
	}
}

// TestProgramsEndWithHalt: every workload's control flow terminates at an
// explicit halt (the BP stream relies on it).
func TestProgramsEndWithHalt(t *testing.T) {
	for _, w := range All() {
		p := w.Build(0)
		found := false
		for i := range p.Code {
			if p.Code[i].Op == isa.OpHalt {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no halt instruction", w.Name)
		}
	}
}

// TestResultAddrLayout: result words do not collide with kernel data (which
// the layout allocator places from 0x1000000 up).
func TestResultAddrLayout(t *testing.T) {
	if ResultAddr(0) >= 0x1000000 {
		t.Fatal("result region overlaps the data arena")
	}
	if ResultAddr(1)-ResultAddr(0) != 8 {
		t.Fatal("result stride must be one word")
	}
}
