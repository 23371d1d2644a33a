package core

import (
	"encoding/hex"
	"runtime"
	"testing"
)

// TestFingerprintPinned pins Framework.Fingerprint — the digest of every
// characterized model input — in both calibration modes, TechSimulated also
// at a non-default supply (0.45 V is the default). A change to a device
// parameter, a model constant or a simulation that moves any characterized
// value by one bit fails here, where nothing else would: the catalog only
// compares a fingerprint against itself. A deliberate model change updates
// these digests together with catalog.Version.
//
// The digests are amd64 values. Other architectures may fuse multiply-adds
// and round differently (ROADMAP, "Bit-identity that survives other
// architectures"), so the test runs on amd64 only.
func TestFingerprintPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprint digests are pinned for amd64; see the ROADMAP item on bit-identity across architectures")
	}
	for _, tc := range []struct {
		name string
		mode Mode
		opts FrameworkOpts
		want string
	}{
		{"paper", TechPaper, FrameworkOpts{}, "f42d3b44cfa9f041785a4363865bad4ed4d3b809c2ed06abdb827bebe81e1aa3"},
		{"simulated", TechSimulated, FrameworkOpts{}, "92c1569dbe71dd3a89e3d814652539197e22934d1859297d14682165bd448361"},
		{"simulated-vdd0.35", TechSimulated, FrameworkOpts{Vdd: 0.35}, "2d9b3012fedf81be3624758aa9275c9bdfe58d911fb3eddf80bcd893a1673ecb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f *Framework
			switch {
			case tc.mode == TechPaper:
				f = paperFramework(t)
			case tc.opts == (FrameworkOpts{}):
				f = simFramework(t)
			default:
				if testing.Short() {
					t.Skip("TechSimulated characterization skipped in -short mode")
				}
				var err error
				if f, err = NewFramework(tc.mode, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			fp := f.Fingerprint()
			if got := hex.EncodeToString(fp[:]); got != tc.want {
				t.Errorf("Fingerprint = %s, want %s", got, tc.want)
			}
		})
	}
}
