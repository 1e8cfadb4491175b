// Package energy implements NEBULA's power, area and energy model: the
// component specifications of Table III encoded as data, and per-layer
// energy/power accounting for the ANN, SNN and hybrid operating modes
// driven by the crossbar mapping and spike-activity statistics. It
// regenerates the quantities behind Figs. 12–17 of the paper.
package energy

// Spec holds the component powers (watts) and areas (mm²) of Table III.
type Spec struct {
	// Neural-core components.
	EDRAMPowerW         float64 // 32 KB eDRAM [25]
	EDRAMAreaMM2        float64
	ADCPowerW           float64 // 4-bit flash ADC [11]
	ADCAreaMM2          float64
	ANNSuperTilePowerW  float64
	ANNSuperTileAreaMM2 float64
	SNNSuperTilePowerW  float64
	SNNSuperTileAreaMM2 float64
	ANNIBPowerW         float64 // 16 KB input buffer
	ANNIBAreaMM2        float64
	SNNIBPowerW         float64 // 4 KB input buffer
	SNNIBAreaMM2        float64
	ANNOBPowerW         float64 // 2 KB output buffer
	ANNOBAreaMM2        float64
	SNNOBPowerW         float64 // 0.5 KB output buffer
	SNNOBAreaMM2        float64

	// Super-tile internals.
	ANNDACPowerW       float64 // 16×128 multi-level drivers, 0.75 V, 4 bit
	ANNDACAreaMM2      float64
	ANNCrossbarPowerW  float64 // 16 arrays of 128×128, 4 bits/cell
	ANNCrossbarAreaMM2 float64
	SNNDriverPowerW    float64 // 16×128 spike drivers, 0.25 V, 1 bit
	SNNDriverAreaMM2   float64
	SNNCrossbarPowerW  float64
	SNNCrossbarAreaMM2 float64
	NUPowerW           float64 // 23×128 neuron units per super-tile
	NUAreaMM2          float64

	// Accumulator unit (hybrid mode).
	AUAdderPowerW     float64 // 1024 8-bit adders
	AUAdderAreaMM2    float64
	AURegisterPowerW  float64 // 1024 16-bit registers (2 KB)
	AURegisterAreaMM2 float64

	// Chip organization.
	ANNCoreCols, ANNCoreRows int // 14×1 ANN cores
	SNNCoreCols, SNNCoreRows int // 14×13 SNN cores
	AUCols, AURows           int // 14×1 accumulator columns
	ClockHz                  float64
	CycleNS                  float64 // 110 ns pipeline stage (§IV-B5)
	ACsPerSuperTile          int
}

// TableIII returns the published component table.
func TableIII() Spec {
	return Spec{
		EDRAMPowerW:  9.55e-3,
		EDRAMAreaMM2: 0.02523,
		ADCPowerW:    0.43e-3,
		ADCAreaMM2:   0.005,

		ANNSuperTilePowerW:  98.87e-3,
		ANNSuperTileAreaMM2: 0.4247,
		SNNSuperTilePowerW:  8.46e-3,
		SNNSuperTileAreaMM2: 0.3822,

		ANNIBPowerW:  4.36e-3,
		ANNIBAreaMM2: 0.06462,
		SNNIBPowerW:  1.08e-3,
		SNNIBAreaMM2: 0.01615,
		ANNOBPowerW:  0.545e-3,
		ANNOBAreaMM2: 0.00808,
		SNNOBPowerW:  0.136e-3,
		SNNOBAreaMM2: 0.00202,

		ANNDACPowerW:       26.56e-3,
		ANNDACAreaMM2:      0.04848,
		ANNCrossbarPowerW:  72.16e-3,
		ANNCrossbarAreaMM2: 0.376,
		SNNDriverPowerW:    0.904e-3,
		SNNDriverAreaMM2:   0.00606,
		SNNCrossbarPowerW:  7.4e-3,
		SNNCrossbarAreaMM2: 0.376,
		NUPowerW:           0.151e-3,
		NUAreaMM2:          0.000189,

		AUAdderPowerW:     0.355e-3,
		AUAdderAreaMM2:    0.00588,
		AURegisterPowerW:  0.545e-3,
		AURegisterAreaMM2: 0.00808,

		ANNCoreCols: 14, ANNCoreRows: 1,
		SNNCoreCols: 14, SNNCoreRows: 13,
		AUCols: 14, AURows: 1,
		ClockHz:         1.2e9,
		CycleNS:         110,
		ACsPerSuperTile: 16,
	}
}

// ANNCorePowerW returns the total power of one ANN neural core
// (Table III "Core Total ANN": 113.8 mW).
func (s Spec) ANNCorePowerW() float64 {
	return s.EDRAMPowerW + s.ADCPowerW + s.ANNSuperTilePowerW + s.ANNIBPowerW + s.ANNOBPowerW
}

// SNNCorePowerW returns the total power of one SNN neural core
// (Table III "Core Total SNN": 19.66 mW).
func (s Spec) SNNCorePowerW() float64 {
	return s.EDRAMPowerW + s.ADCPowerW + s.SNNSuperTilePowerW + s.SNNIBPowerW + s.SNNOBPowerW
}

// AUPowerW returns the power of one accumulator unit block (0.9 mW).
func (s Spec) AUPowerW() float64 { return s.AUAdderPowerW + s.AURegisterPowerW }

// ANNCoreAreaMM2 returns the area of one ANN core (≈0.528 mm²).
func (s Spec) ANNCoreAreaMM2() float64 {
	return s.EDRAMAreaMM2 + s.ADCAreaMM2 + s.ANNSuperTileAreaMM2 + s.ANNIBAreaMM2 + s.ANNOBAreaMM2
}

// SNNCoreAreaMM2 returns the area of one SNN core (≈0.431 mm²).
func (s Spec) SNNCoreAreaMM2() float64 {
	return s.EDRAMAreaMM2 + s.ADCAreaMM2 + s.SNNSuperTileAreaMM2 + s.SNNIBAreaMM2 + s.SNNOBAreaMM2
}

// ChipPowerW returns the total chip power (Table III: ≈5.2 W).
func (s Spec) ChipPowerW() float64 {
	ann := float64(s.ANNCoreCols*s.ANNCoreRows) * s.ANNCorePowerW()
	snn := float64(s.SNNCoreCols*s.SNNCoreRows) * s.SNNCorePowerW()
	// Table III lists 12.6 mW for the 14×1 accumulator columns: 14 AU
	// blocks of 0.9 mW each.
	au := float64(s.AUCols*s.AURows) * s.AUPowerW()
	return ann + snn + au
}

// ChipAreaMM2 returns the total chip area (Table III: ≈86.7 mm²).
func (s Spec) ChipAreaMM2() float64 {
	annArea := float64(s.ANNCoreCols*s.ANNCoreRows) * s.ANNCoreAreaMM2()
	snnArea := float64(s.SNNCoreCols*s.SNNCoreRows) * s.SNNCoreAreaMM2()
	// Table III lists 0.0669 mm² per AU block and 0.937 mm² for the 14×1
	// accumulator columns.
	auArea := float64(s.AUCols*s.AURows) * 0.0669
	return annArea + snnArea + auArea
}
