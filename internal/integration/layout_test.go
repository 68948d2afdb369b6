package integration

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// packedHints asks for the classic layout, the serial library's.
func packedHints() *mpi.Info { return mpi.NewInfo().Set("nc_var_align_size", "1") }

// writeCheckpoint writes one FLASH checkpoint on a fresh file system and
// returns its bytes and the run's pfs read-modify-write counters.
func writeCheckpoint(t *testing.T, fscfg pfs.Config, nranks int, cfg flash.Config, info *mpi.Info) (img []byte, rmwBlocks, rmwBytes int64) {
	t.Helper()
	fsys := pfs.New(fscfg)
	var mu sync.Mutex
	err := mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		st := iostat.New()
		c.Proc().SetStats(st)
		if _, err := flash.WriteCheckpointPnetCDF(c, fsys, "chk.nc", cfg, info); err != nil {
			return err
		}
		mu.Lock()
		rmwBlocks += st.Get(iostat.PfsRMWBlocks)
		rmwBytes += st.Get(iostat.PfsRMWBytes)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("%d ranks, hints %v: %v", nranks, info, err)
	}
	return readPFSFile(t, fsys, "chk.nc"), rmwBlocks, rmwBytes
}

// TestFlashCheckpointStripeRMW pins what the default layout buys where the
// paper measures it: the 8-rank 8x8x8 FLASH checkpoint on the Frost model.
// Each of its 24 unknowns is ten stripes long; begun on a stripe, none of
// their collectives opens or closes with a partial block, and what is left is
// the header and the three small tree variables. With nc_var_align_size=1 the
// file is the packed one of every earlier version — its SHA-256 is pinned —
// and pays two partial blocks per unknown again. A later layout or partition
// change that brings the ragged ends back fails here, not in a benchmark.
func TestFlashCheckpointStripeRMW(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two 63 MB checkpoints")
	}
	frost := bench.ASCIFrost().FS
	aligned, blocks, rmw := writeCheckpoint(t, frost, 8, flash.Default8(), nil)
	if blocks > 6 || rmw > 6*frost.StripeSize {
		t.Errorf("default layout: %d partial blocks, %d bytes read back for them; want at most 6 blocks", blocks, rmw)
	}
	packed, blocks, _ := writeCheckpoint(t, frost, 8, flash.Default8(), packedHints())
	if blocks != 53 {
		t.Errorf("nc_var_align_size=1: %d partial blocks, the packed layout has 53", blocks)
	}
	const packedSHA = "b44a60d31016354e9ab8ead94c45b9fdbefdab5631fe4e864d1053ac5f7e4fb9"
	if got := fmt.Sprintf("%x", sha256.Sum256(packed)); got != packedSHA {
		t.Errorf("nc_var_align_size=1 wrote %d bytes with SHA-256 %s; the packed checkpoint is %s", len(packed), got, packedSHA)
	}
	h, issues, err := cdf.CheckFile(aligned)
	if err != nil || len(issues) != 0 {
		t.Fatalf("aligned checkpoint fails validation: %v %v", err, issues)
	}
	hp, err := cdf.Decode(packed)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(aligned)) != h.FileSize() || len(aligned)-len(packed) >= int(frost.StripeSize) {
		t.Errorf("aligned checkpoint is %d bytes (header declares %d), packed %d: one variable is padded, by under a stripe", len(aligned), h.FileSize(), len(packed))
	}
	for i := range h.Vars {
		v, p := &h.Vars[i], &hp.Vars[i]
		if big := v.VSize >= 4*frost.StripeSize; big && v.Begin%frost.StripeSize != 0 {
			t.Errorf("%s (%d bytes) begins at %d", v.Name, v.VSize, v.Begin)
		}
		if !bytes.Equal(aligned[v.Begin:v.Begin+v.VSize], packed[p.Begin:p.Begin+p.VSize]) {
			t.Errorf("%s differs between the aligned and the packed checkpoint", v.Name)
		}
	}
}

// smallStripes is a file system whose stripes are small enough for a cheap
// checkpoint to have variables of many stripes.
func smallStripes() pfs.Config {
	cfg := pfs.BlueHorizon()
	cfg.StripeSize = 16 << 10
	return cfg
}

// layoutCfg is a 64-block checkpoint: six unknowns of 256 KiB, sixteen small
// stripes each.
func layoutCfg(nranks int) flash.Config {
	return flash.Config{NXB: 8, NYB: 8, NZB: 8, NGuard: 4, NVar: 6, NPlotVar: 2, BlocksPerProc: 64 / nranks}
}

// TestDefaultLayoutIsFunctionOfSchema: the aligned file's bytes depend on the
// logical contents and the striping unit — not on how many ranks wrote it,
// how many aggregators or rounds the collectives took, how many I/O servers
// the file system has (and so how many aggregators a write takes by
// default), or on hints the library no longer knows (cb_partition and
// cb_partition_buckets, which resolve to what their absence does:
// mpiio.TestResolveHintsClamping).
func TestDefaultLayoutIsFunctionOfSchema(t *testing.T) {
	var want [32]byte
	for i, tc := range []struct {
		nranks  int
		hints   [][2]string
		servers int // 0: smallStripes()'s
	}{
		{8, nil, 0},
		{8, nil, 2}, // a write aggregator per server: two, not eight
		{1, nil, 0},
		{2, nil, 0},
		{4, nil, 0},
		{8, [][2]string{{"cb_nodes", "1"}}, 0},
		{8, [][2]string{{"cb_nodes", "2"}}, 0},
		{8, [][2]string{{"cb_nodes", "8"}, {"cb_buffer_size", "8192"}}, 0}, // many rounds
		{4, [][2]string{{"cb_nodes", "2"}, {"cb_buffer_size", "65536"}}, 0},
		{8, [][2]string{{"cb_partition", "even"}}, 0},
		{8, [][2]string{{"cb_partition", "balanced"}, {"cb_partition_buckets", "16"}}, 0},
		{4, [][2]string{{"cb_partition", "balanced"}, {"cb_nodes", "2"}, {"cb_buffer_size", "8192"}}, 0},
		{2, [][2]string{{"romio_cb_write", "disable"}}, 0},
	} {
		info := mpi.NewInfo()
		for _, kv := range tc.hints {
			info.Set(kv[0], kv[1])
		}
		fscfg := smallStripes()
		if tc.servers != 0 {
			fscfg.NumServers = tc.servers
		}
		img, _, _ := writeCheckpoint(t, fscfg, tc.nranks, layoutCfg(tc.nranks), info)
		sum := sha256.Sum256(img)
		if i == 0 {
			want = sum
			h, issues, err := cdf.CheckFile(img)
			if err != nil || len(issues) != 0 {
				t.Fatalf("validation: %v %v", err, issues)
			}
			if v := h.Vars[h.FindVar("dens")]; v.Begin%smallStripes().StripeSize != 0 || v.VSize < 4*smallStripes().StripeSize {
				t.Fatalf("dens (%d bytes) begins at %d: the case does not exercise the alignment", v.VSize, v.Begin)
			}
			continue
		}
		if sum != want {
			t.Errorf("%d ranks on %d servers, hints %v: SHA-256 %x, the 8-rank default file has %x",
				tc.nranks, fscfg.NumServers, tc.hints, sum, want)
		}
	}
}

// TestToolsReadAlignedFile runs the serial tools — all of them read through
// internal/netcdf, which never aligned anything and takes every begin from
// the header — over an aligned checkpoint and its packed twin: ncvalidate
// passes both, ncdiff finds them identical cell for cell, ncdump prints the
// same text, and nccopy (which lays its output out the classic way) turns
// the aligned file into the packed one byte for byte.
func TestToolsReadAlignedFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four commands")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the commands with")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/ncvalidate", "./cmd/ncdiff", "./cmd/ncdump", "./cmd/nccopy")
	build.Dir = filepath.Join("..", "..")
	build.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	tool := func(wantExit int, name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
		if code := exitCode(err); code != wantExit {
			t.Fatalf("%s %v: exit %d (%v), want %d\n%s", name, args, code, err, wantExit, out)
		}
		return string(out)
	}
	// The same file name in two directories, so that ncdump's first line is
	// the same.
	paths, imgs := map[string]string{}, map[string][]byte{}
	for name, info := range map[string]*mpi.Info{"aligned": nil, "packed": packedHints()} {
		imgs[name], _, _ = writeCheckpoint(t, smallStripes(), 4, layoutCfg(4), info)
		paths[name] = filepath.Join(dir, name, "chk.nc")
		if err := os.MkdirAll(filepath.Dir(paths[name]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[name], imgs[name], 0o644); err != nil {
			t.Fatal(err)
		}
		tool(0, "ncvalidate", paths[name])
	}
	aligned, packed := paths["aligned"], paths["packed"]
	if a, p := len(imgs["aligned"]), len(imgs["packed"]); a <= p {
		t.Fatalf("aligned file is %d bytes, packed %d: nothing was padded", a, p)
	}
	tool(0, "ncdiff", aligned, packed)
	if a, p := tool(0, "ncdump", aligned), tool(0, "ncdump", packed); a != p || len(a) < 1000 {
		t.Fatalf("ncdump prints %d bytes for the aligned file, %d for the packed, and they differ", len(a), len(p))
	}
	copied := filepath.Join(dir, "copy.nc")
	tool(0, "nccopy", aligned, copied)
	got, err := os.ReadFile(copied)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, imgs["packed"]) {
		t.Fatalf("nccopy of the aligned file is %d bytes and is not the packed file (%d bytes)", len(got), len(imgs["packed"]))
	}
	// And the tools do tell files apart: one cell changed is one difference.
	got[len(got)-1] ^= 1
	if err := os.WriteFile(copied, got, 0o644); err != nil {
		t.Fatal(err)
	}
	tool(1, "ncdiff", aligned, copied)
}

func exitCode(err error) int {
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	return -1
}
