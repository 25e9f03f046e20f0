//! The declarative topology grammar: [`TopologySpec`] and its
//! validated builder.
//!
//! A spec describes a tiered service deployment (tiers × services ×
//! replicas placed round-robin across hosts and racks), the monitor
//! fleet watching it, and the hazard families that can strike it. It is
//! plain data — compilation into a POMDP happens in [`crate::compile()`].
//! Following the workspace's validated-builder convention
//! (`BootstrapConfig`, `HarnessConfig`), the struct's fields are public
//! and [`TopologySpec::validate`] is the single source of truth; the
//! [`TopologySpecBuilder`] is sugar that ends in a validating
//! [`TopologySpecBuilder::build`]. Nothing in this module panics on bad
//! input — every rejection is a typed [`TopoError`].

use std::fmt;

/// One tier of the deployment: `services` load-balanced services, each
/// running `replicas` identical replicas. Requests traverse every tier,
/// so a tier at zero availability takes the whole system down.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Tier name, used in state/action labels (e.g. `"web"`).
    pub name: String,
    /// Number of distinct services in the tier (≥ 1).
    pub services: usize,
    /// Replicas per service (1..=64 — replica sets are tracked as
    /// 64-bit masks).
    pub replicas: usize,
    /// Wall-clock duration of restarting one service group in this
    /// tier.
    pub restart_duration: f64,
}

/// Monitor coverage and noise. Each monitor family has a detection
/// probability (`1 − detection` is its false-negative rate) and a
/// false-positive rate.
///
/// Detections must be *strictly* inside `(0, 1)`: a certain monitor
/// would mask every lower-priority alarm in the first-alarm observation
/// encoding and create dead observation columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSpec {
    /// Shallow per-service ping monitors: fire when a replica stops
    /// answering pings (crash-class faults; zombies still answer).
    pub shallow_detection: f64,
    /// Shallow false-positive rate.
    pub shallow_fp: f64,
    /// Deep per-service probes: drive a synthetic request through one
    /// uniformly-chosen replica, so they catch zombies at rate
    /// `detection · (down replicas / replicas)`.
    pub deep_detection: f64,
    /// Deep false-positive rate.
    pub deep_fp: f64,
    /// Per-rack heartbeats: fire on host crashes and partitions in the
    /// rack.
    pub rack_detection: f64,
    /// Rack false-positive rate.
    pub rack_fp: f64,
    /// Per-tier synthetic path probes: fire at `detection · (tier
    /// drop fraction)`.
    pub path_detection: f64,
    /// Path false-positive rate.
    pub path_fp: f64,
}

impl Default for MonitorSpec {
    fn default() -> MonitorSpec {
        MonitorSpec {
            shallow_detection: 0.95,
            shallow_fp: 0.01,
            deep_detection: 0.9,
            deep_fp: 0.01,
            rack_detection: 0.98,
            rack_fp: 0.005,
            path_detection: 0.9,
            path_fp: 0.01,
        }
    }
}

/// The hazard families beyond per-component crash/zombie faults (which
/// are always enabled — they are what keeps every monitor column
/// alive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardSpec {
    /// Network partitions: one fault state per rack, cutting off every
    /// component in the rack (they stop answering pings), fixed by the
    /// rack's restore action.
    pub partitions: bool,
    /// Rolling-deploy faults: one fault state per tier where a bad
    /// release degrades the first `⌈deploy_fraction · replicas⌉`
    /// replicas of every service in the tier (still answering pings),
    /// fixed by the tier rollback action.
    pub rolling_deploys: bool,
    /// Fraction of each service's replicas a bad deploy takes out
    /// (`(0, 1]`, required when `rolling_deploys`).
    pub deploy_fraction: f64,
    /// Cascading-failure probability: a group restart that fixes a
    /// component fault instead lands a zombie on the first component of
    /// the dependent group one tier downstream with this probability
    /// (`[0, 1)`; the last tier has no downstream and never cascades).
    pub cascade_prob: f64,
}

impl Default for HazardSpec {
    fn default() -> HazardSpec {
        HazardSpec {
            partitions: true,
            rolling_deploys: true,
            deploy_fraction: 0.5,
            cascade_prob: 0.0,
        }
    }
}

/// Durations of the non-restart recovery actions (restarts are per-tier
/// in [`TierSpec::restart_duration`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationSpec {
    /// Rack reboot duration.
    pub reboot: f64,
    /// Partition-restore duration (the rack drains during restore).
    pub restore: f64,
    /// Tier rollback duration.
    pub rollback: f64,
    /// Monitor-sweep (observe) duration.
    pub observe: f64,
}

impl Default for DurationSpec {
    fn default() -> DurationSpec {
        DurationSpec {
            reboot: 300.0,
            restore: 180.0,
            rollback: 150.0,
            observe: 5.0,
        }
    }
}

/// A declarative datacenter topology, compiled into a validated
/// recovery model by [`crate::compile()`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// The tier stack, front to back. Requests traverse every tier;
    /// cascades flow downstream (towards later tiers).
    pub tiers: Vec<TierSpec>,
    /// Number of hosts; components are placed round-robin
    /// (`component % hosts`). Must not exceed the component count so
    /// every host carries load.
    pub hosts: usize,
    /// Number of racks; hosts are striped round-robin (`host % racks`).
    pub racks: usize,
    /// Services per restart group: recovery restarts whole groups of
    /// consecutive services within a tier, which is what keeps the
    /// action space tractable at datacenter scale.
    pub restart_group_size: usize,
    /// Monitor coverage and noise.
    pub monitors: MonitorSpec,
    /// Hazard families.
    pub hazards: HazardSpec,
    /// Non-restart action durations.
    pub durations: DurationSpec,
    /// Operator response time `t_op` for the §3.1 no-notification
    /// transform.
    pub operator_response_time: f64,
    /// Multiplicative duration jitter amplitude in `[0, 1)`: each
    /// action's duration is scaled by a seed-deterministic factor in
    /// `[1 − jitter, 1 + jitter)`.
    pub duration_jitter: f64,
    /// Seed driving the duration jitter; the same spec + seed always
    /// compiles to a bit-identical model.
    pub seed: u64,
}

impl Default for TopologySpec {
    /// A small three-tier deployment; valid as-is.
    fn default() -> TopologySpec {
        TopologySpec {
            tiers: vec![
                TierSpec {
                    name: "web".into(),
                    services: 3,
                    replicas: 2,
                    restart_duration: 60.0,
                },
                TierSpec {
                    name: "app".into(),
                    services: 3,
                    replicas: 2,
                    restart_duration: 90.0,
                },
                TierSpec {
                    name: "db".into(),
                    services: 2,
                    replicas: 2,
                    restart_duration: 240.0,
                },
            ],
            hosts: 4,
            racks: 2,
            restart_group_size: 2,
            monitors: MonitorSpec::default(),
            hazards: HazardSpec::default(),
            durations: DurationSpec::default(),
            operator_response_time: 6.0 * 3600.0,
            duration_jitter: 0.0,
            seed: 0,
        }
    }
}

/// Why a [`TopologySpec`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum TopoError {
    /// The spec has no tiers.
    NoTiers,
    /// A tier is malformed (empty/duplicate name, zero services,
    /// replicas outside 1..=64, bad duration).
    Tier {
        /// The offending tier's name (or index when unnamed).
        tier: String,
        /// What is wrong with it.
        detail: String,
    },
    /// A scalar field is out of range.
    Field {
        /// The offending field.
        field: &'static str,
        /// What is wrong with it.
        detail: String,
    },
    /// The spec validated but the compiled matrices were rejected by
    /// the model validators (should not happen; indicates a compiler
    /// bug).
    Model(bpr_core::Error),
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::NoTiers => write!(f, "topology must have at least one tier"),
            TopoError::Tier { tier, detail } => write!(f, "tier '{tier}': {detail}"),
            TopoError::Field { field, detail } => write!(f, "{field}: {detail}"),
            TopoError::Model(e) => write!(f, "compiled model rejected: {e}"),
        }
    }
}

impl std::error::Error for TopoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TopoError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopoError> for bpr_core::Error {
    fn from(e: TopoError) -> bpr_core::Error {
        match e {
            TopoError::Model(inner) => inner,
            other => bpr_core::Error::InvalidInput {
                detail: other.to_string(),
            },
        }
    }
}

/// Checks that a probability-like field sits in `[lo, hi)`-style
/// bounds; used by [`TopologySpec::validate`].
fn check_unit(
    field: &'static str,
    value: f64,
    open_low: bool,
    open_high: bool,
) -> Result<(), TopoError> {
    let low_ok = if open_low { value > 0.0 } else { value >= 0.0 };
    let high_ok = if open_high { value < 1.0 } else { value <= 1.0 };
    if !value.is_finite() || !low_ok || !high_ok {
        let lo = if open_low { "(0" } else { "[0" };
        let hi = if open_high { "1)" } else { "1]" };
        return Err(TopoError::Field {
            field,
            detail: format!("must be in {lo}, {hi}, got {value}"),
        });
    }
    Ok(())
}

fn check_duration(field: &'static str, value: f64) -> Result<(), TopoError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(TopoError::Field {
            field,
            detail: format!("must be a positive finite duration, got {value}"),
        });
    }
    Ok(())
}

impl TopologySpec {
    /// Starts a builder seeded with [`TopologySpec::default`]'s scalar
    /// fields and *no* tiers.
    pub fn builder() -> TopologySpecBuilder {
        TopologySpecBuilder {
            spec: TopologySpec {
                tiers: Vec::new(),
                ..TopologySpec::default()
            },
        }
    }

    /// Total number of components (replicas across all tiers).
    pub fn n_components(&self) -> usize {
        self.tiers.iter().map(|t| t.services * t.replicas).sum()
    }

    /// Validates every field; the single source of truth the builder
    /// and the compiler both call.
    ///
    /// # Errors
    ///
    /// A [`TopoError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), TopoError> {
        if self.tiers.is_empty() {
            return Err(TopoError::NoTiers);
        }
        for (i, tier) in self.tiers.iter().enumerate() {
            let name = if tier.name.is_empty() {
                format!("#{i}")
            } else {
                tier.name.clone()
            };
            let fail = |detail: String| TopoError::Tier {
                tier: name.clone(),
                detail,
            };
            if tier.name.is_empty() {
                return Err(fail("name must not be empty".into()));
            }
            if self.tiers[..i].iter().any(|t| t.name == tier.name) {
                return Err(fail("name is duplicated".into()));
            }
            if tier.services == 0 {
                return Err(fail("must have at least one service".into()));
            }
            if !(1..=64).contains(&tier.replicas) {
                return Err(fail(format!(
                    "replicas must be in 1..=64, got {}",
                    tier.replicas
                )));
            }
            if !tier.restart_duration.is_finite() || tier.restart_duration <= 0.0 {
                return Err(fail(format!(
                    "restart_duration must be positive and finite, got {}",
                    tier.restart_duration
                )));
            }
        }
        if self.hosts == 0 {
            return Err(TopoError::Field {
                field: "hosts",
                detail: "must be at least 1".into(),
            });
        }
        if self.hosts > self.n_components() {
            return Err(TopoError::Field {
                field: "hosts",
                detail: format!(
                    "{} hosts exceed the {} components (every host must carry load)",
                    self.hosts,
                    self.n_components()
                ),
            });
        }
        if self.racks == 0 || self.racks > self.hosts {
            return Err(TopoError::Field {
                field: "racks",
                detail: format!(
                    "must be in 1..={} (the host count), got {}",
                    self.hosts, self.racks
                ),
            });
        }
        if self.restart_group_size == 0 {
            return Err(TopoError::Field {
                field: "restart_group_size",
                detail: "must be at least 1".into(),
            });
        }
        let m = &self.monitors;
        check_unit(
            "monitors.shallow_detection",
            m.shallow_detection,
            true,
            true,
        )?;
        check_unit("monitors.deep_detection", m.deep_detection, true, true)?;
        check_unit("monitors.rack_detection", m.rack_detection, true, true)?;
        check_unit("monitors.path_detection", m.path_detection, true, true)?;
        check_unit("monitors.shallow_fp", m.shallow_fp, false, true)?;
        check_unit("monitors.deep_fp", m.deep_fp, false, true)?;
        check_unit("monitors.rack_fp", m.rack_fp, false, true)?;
        check_unit("monitors.path_fp", m.path_fp, false, true)?;
        if self.hazards.rolling_deploys {
            check_unit(
                "hazards.deploy_fraction",
                self.hazards.deploy_fraction,
                true,
                false,
            )?;
        }
        if !self.hazards.cascade_prob.is_finite()
            || !(0.0..1.0).contains(&self.hazards.cascade_prob)
        {
            return Err(TopoError::Field {
                field: "hazards.cascade_prob",
                detail: format!("must be in [0, 1), got {}", self.hazards.cascade_prob),
            });
        }
        check_duration("durations.reboot", self.durations.reboot)?;
        check_duration("durations.restore", self.durations.restore)?;
        check_duration("durations.rollback", self.durations.rollback)?;
        check_duration("durations.observe", self.durations.observe)?;
        check_duration("operator_response_time", self.operator_response_time)?;
        if !self.duration_jitter.is_finite() || !(0.0..1.0).contains(&self.duration_jitter) {
            return Err(TopoError::Field {
                field: "duration_jitter",
                detail: format!("must be in [0, 1), got {}", self.duration_jitter),
            });
        }
        Ok(())
    }
}

/// Fluent constructor for [`TopologySpec`]; `build()` validates.
#[derive(Debug, Clone)]
pub struct TopologySpecBuilder {
    spec: TopologySpec,
}

impl TopologySpecBuilder {
    /// Appends a tier (front to back).
    pub fn tier(
        mut self,
        name: impl Into<String>,
        services: usize,
        replicas: usize,
        restart_duration: f64,
    ) -> TopologySpecBuilder {
        self.spec.tiers.push(TierSpec {
            name: name.into(),
            services,
            replicas,
            restart_duration,
        });
        self
    }

    /// Sets the host count.
    pub fn hosts(mut self, hosts: usize) -> TopologySpecBuilder {
        self.spec.hosts = hosts;
        self
    }

    /// Sets the rack count.
    pub fn racks(mut self, racks: usize) -> TopologySpecBuilder {
        self.spec.racks = racks;
        self
    }

    /// Sets the services-per-restart-group granularity.
    pub fn restart_group_size(mut self, size: usize) -> TopologySpecBuilder {
        self.spec.restart_group_size = size;
        self
    }

    /// Replaces the monitor spec.
    pub fn monitors(mut self, monitors: MonitorSpec) -> TopologySpecBuilder {
        self.spec.monitors = monitors;
        self
    }

    /// Replaces the hazard spec.
    pub fn hazards(mut self, hazards: HazardSpec) -> TopologySpecBuilder {
        self.spec.hazards = hazards;
        self
    }

    /// Replaces the duration spec.
    pub fn durations(mut self, durations: DurationSpec) -> TopologySpecBuilder {
        self.spec.durations = durations;
        self
    }

    /// Sets the operator response time `t_op`.
    pub fn operator_response_time(mut self, t_op: f64) -> TopologySpecBuilder {
        self.spec.operator_response_time = t_op;
        self
    }

    /// Sets the duration-jitter amplitude.
    pub fn duration_jitter(mut self, jitter: f64) -> TopologySpecBuilder {
        self.spec.duration_jitter = jitter;
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> TopologySpecBuilder {
        self.spec.seed = seed;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Everything [`TopologySpec::validate`] rejects.
    pub fn build(self) -> Result<TopologySpec, TopoError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        TopologySpec::default().validate().unwrap();
    }

    #[test]
    fn builder_builds_a_valid_spec() {
        let spec = TopologySpec::builder()
            .tier("web", 2, 2, 60.0)
            .tier("db", 1, 2, 240.0)
            .hosts(4)
            .racks(2)
            .restart_group_size(1)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(spec.n_components(), 6);
        assert_eq!(spec.seed, 42);
    }

    #[test]
    fn rejections_are_typed() {
        let err = TopologySpec::builder().build();
        assert_eq!(err, Err(TopoError::NoTiers));

        let err = TopologySpec::builder()
            .tier("web", 0, 2, 60.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TopoError::Tier { .. }), "{err}");

        let err = TopologySpec::builder()
            .tier("web", 2, 65, 60.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, TopoError::Tier { .. }), "{err}");

        let err = TopologySpec::builder()
            .tier("web", 2, 2, 60.0)
            .tier("web", 1, 2, 60.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicated"), "{err}");

        let err = TopologySpec::builder()
            .tier("web", 2, 2, 60.0)
            .hosts(100)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, TopoError::Field { field: "hosts", .. }),
            "{err}"
        );

        let mut spec = TopologySpec::default();
        spec.monitors.shallow_detection = 1.0; // certain monitors mask lower priorities
        assert!(matches!(
            spec.validate(),
            Err(TopoError::Field {
                field: "monitors.shallow_detection",
                ..
            })
        ));

        let mut spec = TopologySpec::default();
        spec.hazards.cascade_prob = 1.0;
        assert!(spec.validate().is_err());

        let spec = TopologySpec {
            duration_jitter: 1.0,
            ..TopologySpec::default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn core_error_conversion_keeps_detail() {
        let e: bpr_core::Error = TopoError::NoTiers.into();
        assert!(e.to_string().contains("tier"));
    }
}
