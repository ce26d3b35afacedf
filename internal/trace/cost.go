package trace

import (
	"fmt"
	"math"
)

// Tariff prices a datacenter's electricity and carbon. The paper's
// motivation (§I) is stated in exactly these units: billions of kWh and
// their bills and footprints.
type Tariff struct {
	// USDPerKWh is the blended electricity price.
	USDPerKWh float64
	// KgCO2PerKWh is the grid carbon intensity.
	KgCO2PerKWh float64
	// PUE scales IT energy to facility energy (cooling, distribution);
	// zero means 1.0.
	PUE float64
}

// DefaultTariff returns a typical 2016 US datacenter tariff:
// $0.10/kWh, 0.45 kgCO₂/kWh grid intensity, PUE 1.5.
func DefaultTariff() Tariff {
	return Tariff{USDPerKWh: 0.10, KgCO2PerKWh: 0.45, PUE: 1.5}
}

// Bill is the cost and carbon accounting of an energy total.
type Bill struct {
	// FacilityKWh is IT energy scaled by PUE.
	FacilityKWh float64
	// USD is the electricity cost.
	USD float64
	// KgCO2 is the carbon footprint.
	KgCO2 float64
}

// Validate rejects unusable rates — negative, NaN or infinite prices
// and intensities, and a PUE below 1 or non-finite — with typed
// *RateError values. A NaN rate is not "less than zero", so the naive
// sign check alone would let it through and every downstream bill
// would silently be NaN.
func (t Tariff) Validate() error {
	if math.IsNaN(t.USDPerKWh) || math.IsInf(t.USDPerKWh, 0) || t.USDPerKWh < 0 {
		return &RateError{Field: "USDPerKWh", Index: -1, Value: t.USDPerKWh}
	}
	if math.IsNaN(t.KgCO2PerKWh) || math.IsInf(t.KgCO2PerKWh, 0) || t.KgCO2PerKWh < 0 {
		return &RateError{Field: "KgCO2PerKWh", Index: -1, Value: t.KgCO2PerKWh}
	}
	if pue := t.EffectivePUE(); math.IsNaN(pue) || math.IsInf(pue, 0) || pue < 1 {
		return &RateError{Field: "PUE", Index: -1, Value: t.PUE}
	}
	return nil
}

// EffectivePUE returns the tariff's PUE with the zero-value default
// of 1.0 applied.
func (t Tariff) EffectivePUE() float64 {
	if t.PUE == 0 {
		return 1
	}
	return t.PUE
}

// BillOf prices raw IT energy under the tariff: facility energy via
// PUE, then cost and carbon at the tariff's rates. It is the shared
// pricing kernel behind the simulators' -price/-carbon flags and the
// composition optimizer's objective.
func (t Tariff) BillOf(energyKWh float64) (Bill, error) {
	if err := t.Validate(); err != nil {
		return Bill{}, err
	}
	facility := energyKWh * t.EffectivePUE()
	return Bill{
		FacilityKWh: facility,
		USD:         facility * t.USDPerKWh,
		KgCO2:       facility * t.KgCO2PerKWh,
	}, nil
}

// AnnualizedBill scales a bill measured over traceDays to a 365-day
// year — how operators reason about placement-policy savings.
func AnnualizedBill(b Bill, traceDays float64) (Bill, error) {
	if traceDays <= 0 {
		return Bill{}, fmt.Errorf("trace: invalid trace length %v days", traceDays)
	}
	f := 365 / traceDays
	return Bill{
		FacilityKWh: b.FacilityKWh * f,
		USD:         b.USD * f,
		KgCO2:       b.KgCO2 * f,
	}, nil
}
