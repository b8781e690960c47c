package lion

import (
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/recal"
)

// Closed-loop recalibration re-exports: the controller behind liond's -recal
// flag. A RecalController subscribes to a HealthMonitor's alert transitions
// (HealthMonitor.SetOnTransition) and, when a
// calibration-drift alert fires, re-solves the antenna's phase center and
// Eq. 17 offset from the stream engine's live window, validates the candidate
// against held-out samples, and hot-swaps the active StreamProfile — with a
// bounded audit history, a probation window, and automatic rollback.
type (
	// RecalController runs the drift-alert → re-solve → hot-swap loop.
	RecalController = recal.Controller
	// RecalConfig parameterises a RecalController.
	RecalConfig = recal.Config
	// RecalEvent is one audit-log entry: what ran, why, and what changed.
	RecalEvent = recal.Event
	// RecalOutcome labels how a recalibration run ended.
	RecalOutcome = recal.Outcome
)

// Outcomes recorded in RecalEvent.Outcome.
const (
	// RecalSwapped means the candidate beat the active profile and went live.
	RecalSwapped = recal.OutcomeSwapped
	// RecalRejected means the candidate did not improve the held-out fit.
	RecalRejected = recal.OutcomeRejected
	// RecalFailed means the evidence was insufficient or the solve errored.
	RecalFailed = recal.OutcomeFailed
	// RecalRolledBack means the previous profile was restored on probation.
	RecalRolledBack = recal.OutcomeRolledBack
)

// ErrRecalClosed is returned by RecalController.Trigger after Close.
var ErrRecalClosed = recal.ErrClosed

// NewRecalController validates the configuration, registers the controller's
// metrics, and starts the recalibration worker. Wire the returned controller
// into the monitor with HealthMonitor.SetOnTransition(ctrl.OnTransition).
func NewRecalController(cfg RecalConfig) (*RecalController, error) { return recal.New(cfg) }

// Offline calibration-solver re-exports: the shared core behind cmd/lioncal
// and the RecalController.
type (
	// CalibConfig parameterises one line-scan calibration solve.
	CalibConfig = calib.Config
	// CalibResult is the estimated phase center, Eq. 17 offset, and fit.
	CalibResult = calib.Result
)

// EstimateCalibrationLine solves one line-scan calibration: phase center via
// the linear localization model, then the combined tag+antenna offset via the
// paper's Eq. 17 circular mean over the residual phases.
func EstimateCalibrationLine(positions []Vec3, wrapped []float64, cfg CalibConfig) (CalibResult, error) {
	return calib.EstimateLine(positions, wrapped, cfg)
}

// CalibrationResidualRMS scores a (center, offset) pair against a scan as the
// RMS wrapped-phase residual in radians — the acceptance metric the
// RecalController applies to held-out samples.
func CalibrationResidualRMS(positions []Vec3, wrapped []float64, center Vec3, offset, lambda float64) float64 {
	return calib.OffsetResidualRMS(positions, wrapped, center, offset, lambda)
}
