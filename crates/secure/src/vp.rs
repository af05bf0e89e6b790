//! Visibility Point conditions.
//!
//! Under the Comprehensive threat model a load reaches its VP only when no
//! squash is possible for any reason: older branches resolved (*Ctrl
//! Dep*), no possible aliasing with older unresolved memory addresses
//! (*Alias Dep*), no possible exceptions (*Exception*), and no possible
//! memory consistency violation (*MCV*) — Section 1. The Spectre model
//! only requires the first. Figure 1 measures the cost of each condition
//! by releasing loads at the four cumulative points, which correspond to
//! the four cumulative [`VpMask`]s returned by [`VpMask::cumulative`].

use pl_base::ThreatModel;
use std::fmt;

/// The names [`VpMask::blocking_condition`] reports, in the paper's
/// attribution order.
pub const VP_CONDITIONS: [&str; 4] = ["ctrl", "alias", "exception", "mcv"];

/// The set of squash sources a threat model requires to be impossible
/// before a load reaches its Visibility Point.
///
/// # Examples
///
/// ```
/// use pl_secure::{VpMask, VpStatus};
///
/// let mask = VpMask::comprehensive();
/// let status = VpStatus { ctrl_clear: true, alias_clear: true, exception_clear: true, mcv_clear: false };
/// assert!(!mask.reached(status));
/// assert!(VpMask::spectre().reached(status));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VpMask {
    /// Require all older branches resolved.
    pub ctrl: bool,
    /// Require no possible aliasing with unresolved older memory ops.
    pub alias: bool,
    /// Require no possible exception from this or older instructions.
    pub exception: bool,
    /// Require no possible memory consistency violation.
    pub mcv: bool,
}

impl VpMask {
    /// The Spectre threat model: control-flow squashes only.
    pub fn spectre() -> VpMask {
        VpMask {
            ctrl: true,
            alias: false,
            exception: false,
            mcv: false,
        }
    }

    /// The Comprehensive threat model: every squash source.
    pub fn comprehensive() -> VpMask {
        VpMask {
            ctrl: true,
            alias: true,
            exception: true,
            mcv: true,
        }
    }

    /// The four cumulative release points of Figure 1, in order:
    /// `Ctrl Dep`, `+ Alias Dep`, `+ Exception`, `+ MCV`.
    pub fn cumulative() -> [(&'static str, VpMask); 4] {
        [
            (
                "Ctrl Dep.",
                VpMask {
                    ctrl: true,
                    alias: false,
                    exception: false,
                    mcv: false,
                },
            ),
            (
                "Alias Dep.",
                VpMask {
                    ctrl: true,
                    alias: true,
                    exception: false,
                    mcv: false,
                },
            ),
            (
                "Exception",
                VpMask {
                    ctrl: true,
                    alias: true,
                    exception: true,
                    mcv: false,
                },
            ),
            ("MCV", VpMask::comprehensive()),
        ]
    }

    /// Returns `true` if a load with the given per-condition status has
    /// reached its VP under this mask.
    pub fn reached(self, status: VpStatus) -> bool {
        (!self.ctrl || status.ctrl_clear)
            && (!self.alias || status.alias_clear)
            && (!self.exception || status.exception_clear)
            && (!self.mcv || status.mcv_clear)
    }

    /// The name of the first (coarsest-to-clear) condition still blocking,
    /// in the paper's attribution order, or `None` if the VP is reached.
    pub fn blocking_condition(self, status: VpStatus) -> Option<&'static str> {
        if self.ctrl && !status.ctrl_clear {
            Some(VP_CONDITIONS[0])
        } else if self.alias && !status.alias_clear {
            Some(VP_CONDITIONS[1])
        } else if self.exception && !status.exception_clear {
            Some(VP_CONDITIONS[2])
        } else if self.mcv && !status.mcv_clear {
            Some(VP_CONDITIONS[3])
        } else {
            None
        }
    }
}

impl From<ThreatModel> for VpMask {
    fn from(model: ThreatModel) -> VpMask {
        match model {
            ThreatModel::Comprehensive => VpMask::comprehensive(),
            ThreatModel::Spectre => VpMask::spectre(),
        }
    }
}

impl fmt::Display for VpMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vp[{}{}{}{}]",
            if self.ctrl { "C" } else { "-" },
            if self.alias { "A" } else { "-" },
            if self.exception { "E" } else { "-" },
            if self.mcv { "M" } else { "-" },
        )
    }
}

/// Which VP conditions a particular in-flight load has cleared, as
/// computed by the pipeline each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VpStatus {
    /// No older unresolved branch remains.
    pub ctrl_clear: bool,
    /// All older memory operations have generated their addresses.
    pub alias_clear: bool,
    /// This load's address is translated and no older instruction can
    /// fault.
    pub exception_clear: bool,
    /// No MCV is possible: the load is the oldest load in the ROB, or it
    /// is pinned / guaranteed to pin on data arrival.
    pub mcv_clear: bool,
}

impl VpStatus {
    /// A status with every condition cleared.
    pub fn all_clear() -> VpStatus {
        VpStatus {
            ctrl_clear: true,
            alias_clear: true,
            exception_clear: true,
            mcv_clear: true,
        }
    }

    /// Returns `true` if every condition *except* MCV is cleared — the
    /// precondition for pinning (Section 3.2: "a load that has met all the
    /// conditions required to reach the VP except for the guarantee of no
    /// MCVs").
    pub fn clear_except_mcv(self) -> bool {
        self.ctrl_clear && self.alias_clear && self.exception_clear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectre_only_requires_ctrl() {
        let m = VpMask::spectre();
        assert!(m.reached(VpStatus {
            ctrl_clear: true,
            ..VpStatus::default()
        }));
        assert!(!m.reached(VpStatus::default()));
    }

    #[test]
    fn comprehensive_requires_all() {
        let m = VpMask::comprehensive();
        assert!(!m.reached(VpStatus {
            ctrl_clear: true,
            alias_clear: true,
            exception_clear: true,
            mcv_clear: false
        }));
        assert!(m.reached(VpStatus::all_clear()));
    }

    #[test]
    fn cumulative_masks_are_monotone() {
        let masks = VpMask::cumulative();
        assert_eq!(masks[0].1, VpMask::spectre());
        assert_eq!(masks[3].1, VpMask::comprehensive());
        // Each successive mask requires a superset of conditions.
        for w in masks.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            assert!(!a.ctrl || b.ctrl);
            assert!(!a.alias || b.alias);
            assert!(!a.exception || b.exception);
            assert!(!a.mcv || b.mcv);
        }
    }

    #[test]
    fn blocking_condition_order() {
        let m = VpMask::comprehensive();
        assert_eq!(m.blocking_condition(VpStatus::default()), Some("ctrl"));
        assert_eq!(
            m.blocking_condition(VpStatus {
                ctrl_clear: true,
                ..VpStatus::default()
            }),
            Some("alias")
        );
        assert_eq!(
            m.blocking_condition(VpStatus {
                ctrl_clear: true,
                alias_clear: true,
                ..VpStatus::default()
            }),
            Some("exception")
        );
        assert_eq!(
            m.blocking_condition(VpStatus {
                ctrl_clear: true,
                alias_clear: true,
                exception_clear: true,
                mcv_clear: false
            }),
            Some("mcv")
        );
        assert_eq!(m.blocking_condition(VpStatus::all_clear()), None);
    }

    #[test]
    fn clear_except_mcv() {
        let s = VpStatus {
            ctrl_clear: true,
            alias_clear: true,
            exception_clear: true,
            mcv_clear: false,
        };
        assert!(s.clear_except_mcv());
        assert!(!VpStatus::default().clear_except_mcv());
    }

    #[test]
    fn from_threat_model() {
        assert_eq!(VpMask::from(ThreatModel::Spectre), VpMask::spectre());
        assert_eq!(
            VpMask::from(ThreatModel::Comprehensive),
            VpMask::comprehensive()
        );
    }

    #[test]
    fn display_encodes_bits() {
        assert_eq!(VpMask::comprehensive().to_string(), "vp[CAEM]");
        assert_eq!(VpMask::spectre().to_string(), "vp[C---]");
    }
}
