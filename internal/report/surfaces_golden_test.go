package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// The digests below pin every report surface other than the text report
// (TestFullReportGolden): the HTML report with and without sweeps, and
// the text and SVG body of every figure selector on two corpora. When a
// figure digest drifts, TestFigureBodiesGolden logs the current table;
// an intentional change says in its commit why the old bytes were wrong.
const (
	fullHTMLSweepsDigest   = "ce865df492beb51268bf4458233c351cd0606b1512bc6d6f9aab87339e484a33"
	fullHTMLNoSweepsDigest = "efa6632f55a0f9aa41c75ebe05357db5d1f14f6401c50d1cb65649caaab90af0"
)

// figureIDsWant is the selector list Figure accepts, in FigureIDs order.
var figureIDsWant = []string{
	"1", "10", "11", "12", "13", "14", "15", "16", "17",
	"2", "3", "4", "5", "6", "7", "8", "9",
	"e1", "e3", "e4", "e5", "e6", "e7", "t1", "t2",
}

// figureTitlesWant maps each selector to its title and chart capability.
var figureTitlesWant = map[string]struct {
	title string
	svg   bool
}{
	"1":  {"Fig. 1 — Energy proportionality curve", true},
	"10": {"Fig. 10 — Selected EP curves", true},
	"11": {"Fig. 11 — Almond chart (EE envelope)", true},
	"12": {"Fig. 12 — Selected EE curves", true},
	"13": {"Fig. 13 — Economies of scale by node count", false},
	"14": {"Fig. 14 — Single-node servers by chip count", false},
	"15": {"Fig. 15 — 2-chip servers vs all", false},
	"16": {"Fig. 16 — Peak-efficiency utilization shift", true},
	"17": {"Fig. 17 — EP and EE by memory per core", false},
	"2":  {"Fig. 2 — EP and EE evolution", true},
	"3":  {"Fig. 3 — EP statistics by year", true},
	"4":  {"Fig. 4 — EE statistics by year", true},
	"5":  {"Fig. 5 — CDF of energy proportionality", true},
	"6":  {"Fig. 6 — Servers by microarchitecture", true},
	"7":  {"Fig. 7 — Mean EP by codename", true},
	"8":  {"Fig. 8 — Microarchitecture mix 2012-2016", true},
	"9":  {"Fig. 9 — Pencil-head chart (EP envelope)", true},
	"e1": {"Extension E1 — Proportionality gap by region", false},
	"e3": {"Extension E3 — Quadrature ablation", false},
	"e4": {"Extension E4 — Per-era improvement rates", false},
	"e5": {"Extension E5 — Component power breakdown", false},
	"e6": {"Extension E6 — Projection past 2016", false},
	"e7": {"Extension E7 — KnightShift heterogeneity", false},
	"t1": {"Table I — Memory per core statistics", false},
	"t2": {"Table II — Tested servers", false},
}

// figureDigestsWant maps "<corpus>/<id>/<form>" to the sha256 of the
// body Figure (form "text") or FigureSVG (form "svg") returns.
var figureDigestsWant = map[string]string{
	"fleet3/1/svg":   "62456e0bd9aebaf6849fc5c2828fd23152a9683e26faf56e2ab39fa8610c8426",
	"fleet3/1/text":  "bdee29115a8c31a14e03ac326e99e5043804004110ccfcdb3183a3f16c78da61",
	"fleet3/10/svg":  "25615e06d3ca59200fb1d3dee90f7a8d9b58ed1af5ee40429fe9891ea094d020",
	"fleet3/10/text": "53c89be51d3c2307fb2d95ebb806e9cd008c67114e00cf6b9965ec23752d2180",
	"fleet3/11/svg":  "d178e62da6c46d9f494cdfe494f8c9f4e68439420222aeaebb4e197dda157967",
	"fleet3/11/text": "ae5da2f90a53355c566764c448a94698933f7b9bf768498e9aeb9cae2243e7eb",
	"fleet3/12/svg":  "946cf6d610d3f00105a8e33822ba73eaeadfd763f806e4a19ed027cdbdcfe2df",
	"fleet3/12/text": "4afee92b1e2dd222968bae6b402f0f904212cc54ae8a4cc31ffa84fc2c60f200",
	"fleet3/13/text": "d7c1b1bfeffde406549a930ea935096e40aea1f39319a7aefa839f7d80461daf",
	"fleet3/14/text": "025f1ae3c45dc4b8a6f073d10b43cbbd90d666c1f3ebf9e9515244cc1b59a1ce",
	"fleet3/15/text": "d577d2362bf3421bd041edc3b0f79dd2c80902b18ff808662fcd3b22afb0a013",
	"fleet3/16/svg":  "6353629e8fdf3db80d2098a1310d65dfa3af96a297784bf75135a77fe40d8fed",
	"fleet3/16/text": "271b9ced44ac422cf2ca9619bf2487bc2f99f818acebc6ae78b077a90e944b60",
	"fleet3/17/text": "bb9fcb57776c9229bc47aec018ff00326a173e74d04f7fc3c1c4c9c8bf526e89",
	"fleet3/2/svg":   "25f2561849ca2c06881be883b78c2c0993cfa5610188dbbc0d00848b604a847b",
	"fleet3/2/text":  "2b5be49f78cf7d4afffa4ad693dd6146ffbde0fcf74333a87e07a5ceb7f140d1",
	"fleet3/3/svg":   "930074e02fe75eafb0a0ded609f14bebe28755c137b7fc3239ff4a413331ce9a",
	"fleet3/3/text":  "d6f1e2593264ee131d331838e76112683fa240126e41f1e9b3fe5c3114eb3cd8",
	"fleet3/4/svg":   "ec61af5ecef54b9c9c4d2b8cbf24ac7fd73308e918b98f66bff0ae923c9abf47",
	"fleet3/4/text":  "44a8c4e7dd4ef434f91e25c77a09e9c8bb1864292f1f783f3677f31f4f1e8b90",
	"fleet3/5/svg":   "c0bd266f025a838a53b92ffe2b96652789c908ea652dc12ffe3316e02d86b06e",
	"fleet3/5/text":  "41c0e10800b78cd9ad5e7a38933866bbfa1b08c6df60689f054d926b8191ce9c",
	"fleet3/6/svg":   "fa8650635612768b42cf2168917a5a28f7d162ba5ae7e5dd7b906cc27a1bed13",
	"fleet3/6/text":  "78dd803ce44b60c4648eae172a054c70768466610de8dcf27a7891c5945b4d3b",
	"fleet3/7/svg":   "9dd83dd15fcfb94f7c3b896257395005b2591937e6b1fe5f719842d506b96c98",
	"fleet3/7/text":  "f5bc3c4f04882d173548e905b9b3b58ea5288614eae8fe2c75b622ff206a93d5",
	"fleet3/8/svg":   "ab2203b51258ca1c712a16e9614d1b9fb18ffa842fefd21190d6d008db058b9d",
	"fleet3/8/text":  "bb8678eb8fa03a0b8ad79864f858409f1cc7bc3c56e5d875f0ce0b7a66ca922c",
	"fleet3/9/svg":   "7a28c51320da238dd03b211307b485eadbd0101dce3a585ec79cac20cb4bc437",
	"fleet3/9/text":  "ea1ef6ff36c4a5c305e12521c593ce51249361b917d03204c6cfd0a95cd1247d",
	"fleet3/e1/text": "a87b85310b52d541688d86d55f58974f1fa424a0866d96423ae9cf05b2bfef08",
	"fleet3/e3/text": "e4278b1ff85de1cd6263bea190e142289f315e8d5462fcabd5d5663b67d25489",
	"fleet3/e4/text": "eaeffa038beffede44fb916839ddce9e5775371ee38119d97ab686cdb47bbe81",
	"fleet3/e5/text": "ada6d35591f776c1573b3ca52091ff66b4344d8c5a140933e20209fe053bdfae",
	"fleet3/e6/text": "f9faaecb057a0f1e63ae9ba1ab7507eb0ec1303784a10945df711bcf68bc6b30",
	"fleet3/e7/text": "da42ddcbe509ef01516581fa5dbd7a25f0dd449545bac795ea010d2ea85369c3",
	"fleet3/t1/text": "f78b5d82c971f05916b919bb04aa0385ce4b7f516cbab0479b53d90137640d6a",
	"fleet3/t2/text": "74d2ff7863b7bfdbebf75a52997514143e39f8c88f9da2a9cb86345a88844d6f",
	"seed1/1/svg":    "ea4c9bed42d81482e285b2b612ec3f72db8b5717bdcdb5e1ad1c9c5258650a66",
	"seed1/1/text":   "100494f3f9e603c5b5865b950f174d236e620eb560f7bef7cdaf56a4c317a604",
	"seed1/10/svg":   "5e1fbbf0fc56f48243cab3ff5569bdf7c48433c953d6d253ae76de398d1fbe32",
	"seed1/10/text":  "01957f01ef8dd07e90af5c930751492be221ba7a6b781aff006918652df4428f",
	"seed1/11/svg":   "3706530145bcfe20c6498953e4e8cca2baf765e36fa6b28234595806eddaae2c",
	"seed1/11/text":  "9f51e893473b0e97b5151a7fb821dfcfa33d99bbae1f966fc6c61dbf7b48cdc7",
	"seed1/12/svg":   "01827b4705edb64f57d1024d42674a0750de3786616e0cb6971f849c77c3696e",
	"seed1/12/text":  "5279499998dc1ccdd0c508798608f5ab8810124b03e7eee7db9bddc5c4eaf82c",
	"seed1/13/text":  "e7a89a578945137f822e4a8e056109e5b119bfb4da526a54e201a86a88f885c8",
	"seed1/14/text":  "a4d4ff6e58298ddc83ab152805a17a6a854cfbb0b19a05e78908598c6c6e66bf",
	"seed1/15/text":  "f0b901cf4a0bcf4b2bdf483525416c7cde80188d25fb90e732bcd22bc71666d9",
	"seed1/16/svg":   "073168868e15fa5a1f58af9e2ebae504e862440563997444226239e34d97c185",
	"seed1/16/text":  "c9eeafbd83911fc576cf07946d8f1728424f9b98e3387917d9b181d286eae337",
	"seed1/17/text":  "0427f52ec6d1accf3712e23be49e609cce361ae7d04c6450c26567d4ab050582",
	"seed1/2/svg":    "77f142774e3912c814f261ac77a521953af6ba1ea849f2e04d5fe7fa4f6a07d1",
	"seed1/2/text":   "62d579a90907a452ff8596a04c19eabd20dde0241da1c34a54f2e989ccb8acee",
	"seed1/3/svg":    "3fca6427a06b1947318d7ac4c14b7e5a0f2cc456886d3f52b2b14d3af5c3342b",
	"seed1/3/text":   "2464d56fb0630151db9dca0437f314085e4c15b09cfbc1d98034ceb3a0a92a33",
	"seed1/4/svg":    "19d40b75f5af74cae51e3f77d593a34d20dc7867a310fe6c7c982dc50d991b44",
	"seed1/4/text":   "101fd9a86ad2cc2d895e5b5a3600e94cae889fcf41cd5cb7da426cb023a5c2d2",
	"seed1/5/svg":    "083242b312a64c572095e5cb203c33ccb9da7375f51b9dd3b63765e02b46372f",
	"seed1/5/text":   "041e937064d1f5e8c7ea9c170d666848b59b0ca76559f01632be5f99079a3c35",
	"seed1/6/svg":    "5a6eaca5abea0bd5d81c11ebf2d52ae30cdc27e9f18d60f96f5f7fdd851b86e3",
	"seed1/6/text":   "169b39d16ace080c088bdde6ec7d9808985f150de4501e31caae1d859a0884f5",
	"seed1/7/svg":    "c2d99b0637be4465d77a3d48689b959e50a5c16d8a449a3d3d11b2c95ddea17f",
	"seed1/7/text":   "85d724d5a748353e4aac3e879c851fe502632d4e3da9a31ce7668a95ec9e1659",
	"seed1/8/svg":    "a1c26fe57cef8b782ead6a3fe337960e50b500cddc56e34d4b7774e7e1192779",
	"seed1/8/text":   "f4f33e66eedfcd89ce95288dfde5f92e3af16cfea10462c3c68644b7d8210af1",
	"seed1/9/svg":    "d190a6d14d31a89221766773a6fa828f0e87e969186e19476065660f4bca2f08",
	"seed1/9/text":   "5bdbec2bba40dd9c4d59793ad57503b0b2facd4476744dcbd3e34361ea85d88a",
	"seed1/e1/text":  "46f9b74c23b9f62e4a92f7015cfdd56f6a66b6d453c9f97415503dbb0365e5e9",
	"seed1/e3/text":  "70ab254a478078ae029a54a6025386689a27c73c46321d2ae0e8b5c350503fc6",
	"seed1/e4/text":  "9c872ac1f293a78c0a94056eedb7eacdd40e1091503af2a11af89636f53e5cde",
	"seed1/e5/text":  "ada6d35591f776c1573b3ca52091ff66b4344d8c5a140933e20209fe053bdfae",
	"seed1/e6/text":  "5eb8edc60196b60025abb6dbf2dd6f6bb794a8b05579f75854645046517f4240",
	"seed1/e7/text":  "74e6edca331d5d94701fa030259b53f6f497850d1cef0c84ba068008dd04606e",
	"seed1/t1/text":  "eaf591047a9ee50b83e3643989558c91c82e5693461298de7cb81d8eab22eb71",
	"seed1/t2/text":  "74d2ff7863b7bfdbebf75a52997514143e39f8c88f9da2a9cb86345a88844d6f",
}

// surfaceFleet is a 5,000-server fleet (seed 3) built from columns: a
// corpus whose Fig. 1 sample, representatives and era fits differ from
// the seed-1 corpus's.
func surfaceFleet(t *testing.T) *dataset.Repository {
	t.Helper()
	cs, err := synth.GenerateFleetStore(synth.FleetConfig{Seed: 3, Servers: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return dataset.NewColumnRepository(cs).Valid()
}

func TestFullHTMLGolden(t *testing.T) {
	rp := validCorpus(t)
	for _, c := range []struct {
		name string
		opts Options
		want string
	}{
		{"sweeps", Options{Sweeps: true, SweepSeconds: 5, Seed: 1}, fullHTMLSweepsDigest},
		{"no sweeps", Options{Seed: 1}, fullHTMLNoSweepsDigest},
	} {
		out, err := FullHTML(rp, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := digest([]byte(out)); got != c.want {
			t.Errorf("FullHTML (%s) digest = %s, want %s (output drifted)", c.name, got, c.want)
		}
	}
}

func TestFigureSelectorsPinned(t *testing.T) {
	ids := FigureIDs()
	if strings.Join(ids, ",") != strings.Join(figureIDsWant, ",") {
		t.Fatalf("FigureIDs() = %q, want %q", ids, figureIDsWant)
	}
	for _, id := range ids {
		want := figureTitlesWant[id]
		if got := FigureTitle(id); got != want.title {
			t.Errorf("FigureTitle(%q) = %q, want %q", id, got, want.title)
		}
		if got := FigureHasSVG(id); got != want.svg {
			t.Errorf("FigureHasSVG(%q) = %v, want %v", id, got, want.svg)
		}
	}
	if FigureTitle("18") != "" || FigureHasSVG("18") {
		t.Error("report-only Fig. 18 is addressable as a selector")
	}
}

func TestFigureBodiesGolden(t *testing.T) {
	corpora := []struct {
		name string
		rp   *dataset.Repository
	}{
		{"seed1", validCorpus(t)},
		{"fleet3", surfaceFleet(t)},
	}
	got := map[string]string{}
	for _, c := range corpora {
		for _, id := range FigureIDs() {
			text, err := Figure(c.rp, id)
			if err != nil {
				t.Fatalf("%s: Figure(%q): %v", c.name, id, err)
			}
			got[c.name+"/"+id+"/text"] = digest([]byte(text))
			svg, err := FigureSVG(c.rp, id)
			switch {
			case errors.Is(err, ErrNoSVG):
				continue
			case err != nil:
				t.Fatalf("%s: FigureSVG(%q): %v", c.name, id, err)
			}
			got[c.name+"/"+id+"/svg"] = digest([]byte(svg))
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != figureDigestsWant[k] {
			t.Errorf("%s digest = %s, want %s (output drifted)", k, got[k], figureDigestsWant[k])
		}
	}
	if len(got) != len(figureDigestsWant) {
		t.Errorf("rendered %d figure bodies, want %d", len(got), len(figureDigestsWant))
	}
	if t.Failed() {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("current digests:\n%s", b.String())
	}
}
