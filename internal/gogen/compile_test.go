package gogen

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

// TestGeneratedGoCompiles builds the generated program skeletons with the
// real Go toolchain — the end-to-end proof of the future-work extension.
func TestGeneratedGoCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compilation test skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}

	models := map[string]*uml.Model{
		"sample":           samples.Sample(),
		"kernel6":          samples.Kernel6(),
		"kernel6-detailed": samples.Kernel6Detailed(),
		"pipeline":         samples.Pipeline(3),
		"colliding-names":  collidingNames(),
	}
	gen := New()
	for name, m := range models {
		name, m := name, m
		t.Run(name, func(t *testing.T) {
			src, err := gen.Generate(m)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module generated\n\ngo 1.22\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goBin, "build", "-o", filepath.Join(dir, "bin"), ".")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GO111MODULE=on")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("generated Go does not compile: %v\n%s\n--- source ---\n%s", err, out, src)
			}
			// The generated skeleton must also run (it only touches stubs).
			run := exec.Command(filepath.Join(dir, "bin"))
			if out, err := run.CombinedOutput(); err != nil {
				t.Fatalf("generated program failed to run: %v\n%s", err, out)
			}
		})
	}
}

// collidingNames has element names the checker accepts but funcName maps
// to one Go identifier per pair: work/Work and a-b/a_b.
func collidingNames() *uml.Model {
	b := builder.New("colliding-names")
	d := b.Diagram("main")
	d.Initial()
	for _, name := range []string{"work", "Work", "a-b", "a_b"} {
		d.Action(name).Tag("time", "1")
	}
	d.Final()
	d.Chain("initial", "work", "Work", "a-b", "a_b", "final")
	return builder.MustBuild(b)
}
