//! Integration tests of the GAR registry: every rule registered in
//! `registry.rs` must resolve by name, report the paper-correct resilience
//! level, and carry a configuration and properties that survive a serde
//! round-trip.

use agg_core::resilience::resilience_floor;
use agg_core::{GarConfig, GarKind, Resilience};

/// The resilience level the paper assigns to each rule: plain and selective
/// averaging provide none, the Krum/median families are weakly resilient
/// (Definition 1), and Bulyan is strongly resilient (Definition 2). Draco's
/// majority vote returns an honest gradient exactly, so it is strong too
/// (given the replicated batches it assumes).
fn paper_resilience(kind: GarKind) -> Resilience {
    match kind {
        GarKind::Average | GarKind::SelectiveAverage => Resilience::None,
        GarKind::Median
        | GarKind::TrimmedMean
        | GarKind::MeaMed
        | GarKind::GeometricMedian
        | GarKind::Krum
        | GarKind::MultiKrum => Resilience::Weak,
        GarKind::Bulyan | GarKind::Majority => Resilience::Strong,
    }
}

#[test]
fn every_registered_rule_resolves_by_name() {
    for kind in GarKind::ALL {
        let parsed: GarKind = kind
            .name()
            .parse()
            .unwrap_or_else(|e| panic!("canonical name '{}' failed to parse: {e}", kind.name()));
        assert_eq!(parsed, kind);

        let gar = GarConfig::new(kind, 1)
            .build()
            .unwrap_or_else(|e| panic!("registered rule '{}' failed to build: {e}", kind.name()));
        assert_eq!(gar.name(), kind.name(), "built rule disagrees about its name");
    }
}

#[test]
fn runner_style_specs_resolve_for_every_rule() {
    for kind in GarKind::ALL {
        let spec = format!("{}:f=2", kind.name());
        let config = GarConfig::parse(&spec).unwrap();
        assert_eq!(config.kind, kind);
        assert_eq!(config.f, 2);
    }
}

#[test]
fn every_rule_reports_the_paper_correct_resilience() {
    for kind in GarKind::ALL {
        assert_eq!(
            kind.resilience(),
            paper_resilience(kind),
            "{} reports the wrong resilience level",
            kind.name()
        );
    }
}

#[test]
fn declared_f_propagates_into_properties_of_resilient_rules() {
    for kind in GarKind::ALL {
        if paper_resilience(kind) == Resilience::None {
            continue;
        }
        for f in [1usize, 3, 5] {
            let floor = resilience_floor(kind, f);
            assert!(floor > f, "{} must need more than f workers", kind.name());
            let gar = GarConfig::new(kind, f).build().unwrap();
            assert!(gar.check(floor - 1).is_err(), "{} dropped its declared f", kind.name());
            assert!(gar.check(floor).is_ok(), "{} refuses its own floor", kind.name());
        }
    }
}

#[test]
fn gar_properties_round_trip_through_serde() {
    for kind in GarKind::ALL {
        let properties = (kind, kind.resilience(), resilience_floor(kind, 2));
        let json = serde_json::to_string(&properties).unwrap();
        let back: (GarKind, Resilience, usize) = serde_json::from_str(&json).unwrap();
        assert_eq!(back, properties, "{} properties changed across serde", kind.name());
    }
}

#[test]
fn gar_config_round_trips_through_serde() {
    for kind in GarKind::ALL {
        for config in [GarConfig::new(kind, 4), GarConfig::new(kind, 1).with_selection(3)] {
            let json = serde_json::to_string(&config).unwrap();
            let back: GarConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, config);
        }
    }
}

#[test]
fn gar_kind_round_trips_through_serde() {
    for kind in GarKind::ALL {
        let json = serde_json::to_string(&kind).unwrap();
        let back: GarKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kind);
    }
}

#[test]
fn unknown_names_are_rejected() {
    assert!("draco".parse::<GarKind>().is_err());
    assert!(GarConfig::parse("no-such-rule:f=1").is_err());
}
