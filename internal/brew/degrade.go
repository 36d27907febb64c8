package brew

import "errors"

// Degradation reasons, the closed vocabulary Do's ModeDegrade classifies
// failures into (Outcome.Reason carries one).
const (
	ReasonTraceBudget  = "trace-budget"
	ReasonDeadline     = "deadline"
	ReasonCodeBuffer   = "code-buffer"
	ReasonBlocks       = "blocks"
	ReasonInlineDepth  = "inline-depth"
	ReasonIndirectJump = "indirect-jump"
	ReasonUnsupported  = "unsupported"
	ReasonBadCode      = "bad-code"
	ReasonBadConfig    = "bad-config"
	ReasonPanic        = "panic"
	ReasonOther        = "other"
)

// DegradeReason maps a Do error to its degradation-reason label.
func DegradeReason(err error) string {
	switch {
	case errors.Is(err, ErrTraceTooLong):
		return ReasonTraceBudget
	case errors.Is(err, ErrDeadline):
		return ReasonDeadline
	case errors.Is(err, ErrCodeBufferFull):
		return ReasonCodeBuffer
	case errors.Is(err, ErrTooManyBlocks):
		return ReasonBlocks
	case errors.Is(err, ErrInlineDepth):
		return ReasonInlineDepth
	case errors.Is(err, ErrIndirectJump):
		return ReasonIndirectJump
	case errors.Is(err, ErrUnsupported):
		return ReasonUnsupported
	case errors.Is(err, ErrBadCode):
		return ReasonBadCode
	case errors.Is(err, ErrBadConfig):
		return ReasonBadConfig
	case errors.Is(err, ErrRewritePanic):
		return ReasonPanic
	default:
		return ReasonOther
	}
}
