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
	"fleet3/1/svg":   "1f0d2c3f28d3f1687ce182c06c0b857f7d59bb7f34bd1f77bccc749f0a69df8f",
	"fleet3/1/text":  "9b9203a19180c22481d119a063d2eb120dbb75952797e8f0edbf1ea95c3d5c53",
	"fleet3/10/svg":  "327091daad604ebd2d58d1ebb058c3bbe5e7cae13315551ea2b1a823db2ab4d5",
	"fleet3/10/text": "95e81c885af76eff45d4e250061a1dccb4f0803be99b9ed1d2e8bc15f8bb4507",
	"fleet3/11/svg":  "146321ade44ec159e5fb51d123016490feb2ef48fb5703507a1045fee8b93102",
	"fleet3/11/text": "b268b3e23753dd24fcc70db013e17e5f4ebeb3ddaef01498058eb8cb90be4b47",
	"fleet3/12/svg":  "73a0485a1d9d7de9564108e11b05fc29e3651d3723c1b1763690760e1d28ef32",
	"fleet3/12/text": "7d9bf6f0e39b9e1dd5765312a321120349639f3471418f56cda4daa7293b7da4",
	"fleet3/13/text": "42ce9db440b25ba9b3771792276a6c9bf4624ab3c7f0e39fa52991d3dd91c368",
	"fleet3/14/text": "b3f0ab68864ce5649762c460fad8ec5666a723b3f186e02e7d04e850b0436303",
	"fleet3/15/text": "62ce047f0634dd93f7bd92fe65f9213f05dc12263361b27dab7aa5aeeb2a5474",
	"fleet3/16/svg":  "6923e531e59b54540a780465f3c6a661461a4b3f73383b8b34d795f423079eec",
	"fleet3/16/text": "746969ab5ca42bbd1842f98ba41c2db002bf932e89b5f492f8aa457a09b1e4ac",
	"fleet3/17/text": "2edd386fbeb9509c125250fe57376fb2a673fe5895502d8b96c1868357e64fb9",
	"fleet3/2/svg":   "4d828c20685e13e8193b5ae2316b80c9260a10f76e3b34461cf83f8cb1ce5cec",
	"fleet3/2/text":  "ae112e1be306b4a7cc517b4b0d0a6a7ac0cccd74e173220dc8e7c17b51715a72",
	"fleet3/3/svg":   "e5da42eff424688a899d1b7693a244dd61f0e1ac4fd9fb525aa8b96e98f9ce3b",
	"fleet3/3/text":  "187a2a5bec34af6a0f31fecf7aa57364b34ad8ab57e138e8b24ebcc30a9ef3dc",
	"fleet3/4/svg":   "f3fc05e479604bfa1f572161f6979ec746a67ae11708a481188d2e8fa0b17a2b",
	"fleet3/4/text":  "ade75afb041c62be044897f6211167c56de8fc31e8bd26839c5acd6481144277",
	"fleet3/5/svg":   "1b0b434954d6f833f2fb165cbf7050fb5e890dcce78f1e7a8f63a7ef70e48d10",
	"fleet3/5/text":  "0857ea57cf5f9f4db5f4fdc62af21daa5dafa471b5644fdf2472175e5cd105ad",
	"fleet3/6/svg":   "140d5a8edf984fb704cc844f32ed0dcbb1c5d9b11cdb94016cc9a987a6ec84d5",
	"fleet3/6/text":  "1acf9233976d666874f860d47c92b69634e9c2b18093a101c6f7007afe1ae026",
	"fleet3/7/svg":   "00c7ef49f8805dad8de37cde7bd1eceaa3be4f7fffc1561a5125638223be578f",
	"fleet3/7/text":  "2641cbe6e350986625a205f12c6539a7e1a6aad71c0bdf37e670363900377541",
	"fleet3/8/svg":   "94fa2289d5590a51e867bcfd7ca1f6151ed38dbd88c36f5cc8ecd3d2d55bc74a",
	"fleet3/8/text":  "953db31721cd963624eee184776b37911fcc8712378fbe0e59d60daa6378ce7d",
	"fleet3/9/svg":   "b5c11dd0c5d1370af77e18bf7f0a2bdeb0c710f34a02e96a87a9cf4a521c068d",
	"fleet3/9/text":  "9570725b01963992e683ded021d358657be8495da00ca79a290255bca6ea2d9f",
	"fleet3/e1/text": "97fdece0ad323e601f7b241f9a342350aab2497f10a9fc4c37576bcdb6c31f52",
	"fleet3/e3/text": "546c8a4d6d2d8d7cc77391eadfa782d01f9143d6064308b3fe17e03bb76925a1",
	"fleet3/e4/text": "0579e651a5e5c266482e937ecf4d93e6d2f8c8ec1598d7fa93e3924990c3501c",
	"fleet3/e5/text": "ada6d35591f776c1573b3ca52091ff66b4344d8c5a140933e20209fe053bdfae",
	"fleet3/e6/text": "aa80fb58a0dc306831314179ae64a725c12b885b00d7c725aec9b1c59fd7af09",
	"fleet3/e7/text": "43b3a228e72b6296ac0b902e21bcfb478b0a8774e7c23d13b50e64d8abffde2b",
	"fleet3/t1/text": "62fea14ab37247f949809952101ec49a6d364d903cf050ff33e84b2fa927751e",
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
