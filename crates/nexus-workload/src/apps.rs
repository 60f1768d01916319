//! The seven applications of Table 4, expressed as query templates.
//!
//! The paper implemented each application itself ("we are unaware of freely
//! available, widely used versions"); this reproduction does the same at the
//! query-DAG level. Each app names its catalog models, the fan-out factor γ
//! per pipeline edge (how many child invocations one parent invocation
//! yields, on average), how many transfer-learned variants of each model it
//! deploys (driving prefix batching), and its latency SLO. Models the paper
//! uses but the catalog lacks (pose, gaze recognizers, …) are stood in for
//! by catalog models of the same computational class — documented per app.

use serde::{Deserialize, Serialize};

use nexus_profile::Micros;

/// Fan-out distribution of one query edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GammaSpec {
    /// Every invocation yields exactly this many child invocations (counts
    /// are rounded stochastically when fractional).
    Fixed(f64),
    /// Child count per invocation is Poisson with this mean.
    Poisson(f64),
}

impl GammaSpec {
    /// Mean children per invocation.
    pub fn mean(&self) -> f64 {
        match *self {
            GammaSpec::Fixed(g) | GammaSpec::Poisson(g) => g,
        }
    }
}

/// One stage of an application query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppStage {
    /// Catalog model name (see `nexus_profile::catalog`).
    pub model: String,
    /// Number of transfer-learned variants deployed (>1 enables prefix
    /// batching; requests spread evenly over variants).
    pub variants: u32,
    /// Children as `(stage index, γ)`.
    pub children: Vec<(usize, GammaSpec)>,
}

/// An application: a tree of stages invoked per sampled frame under one
/// end-to-end latency SLO.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Application name as in Table 4.
    pub name: String,
    /// Whole-query latency SLO.
    pub slo: Micros,
    /// Stages; index 0 is the root (invoked once per frame).
    pub stages: Vec<AppStage>,
    /// Number of independent input streams (Table 4's stream counts).
    pub streams: u32,
}

impl AppSpec {
    /// Per-stage mean request rates when frames arrive at `frame_rate`
    /// req/s: child rate = parent rate × mean γ.
    pub fn stage_rates(&self, frame_rate: f64) -> Vec<f64> {
        let mut rates = vec![0.0; self.stages.len()];
        rates[0] = frame_rate;
        for (i, stage) in self.stages.iter().enumerate() {
            for &(c, g) in &stage.children {
                rates[c] += rates[i] * g.mean();
            }
        }
        rates
    }

    /// Number of stages on the longest root-to-leaf path (the `QA-k` depth
    /// of Table 4).
    pub fn depth(&self) -> usize {
        fn depth_of(stages: &[AppStage], u: usize) -> usize {
            1 + stages[u]
                .children
                .iter()
                .map(|&(c, _)| depth_of(stages, c))
                .max()
                .unwrap_or(0)
        }
        depth_of(&self.stages, 0)
    }
}

/// `game` — analyze streamed video games (§7.3.1): per frame, recognize six
/// numbers with game-specialized LeNets and one icon with a last-layer-
/// specialized ResNet-50. 20 games ⇒ 20 variants of each. Depth 1 (QA-1).
pub fn game() -> AppSpec {
    AppSpec {
        name: "game".to_string(),
        slo: Micros::from_millis(50),
        stages: vec![
            AppStage {
                model: "resnet50".to_string(),
                variants: 20,
                children: vec![(1, GammaSpec::Fixed(6.0))],
            },
            // The six digit recognitions are siblings of the icon lookup in
            // the paper's query; modelling them as a γ=6 child keeps the
            // tree shape while preserving rates and depth-1 latency (LeNet
            // adds <0.1 ms).
            AppStage {
                model: "lenet5".to_string(),
                variants: 20,
                children: vec![],
            },
        ],
        streams: 50,
    }
}

/// `traffic` — street surveillance (§7.3.2, Fig. 8): SSD detects objects,
/// cars go to GoogleNet-car, faces to VGG-Face. γ values are per-frame
/// detection counts; rush hour multiplies them (see
/// [`traffic_rush_hour`]). Depth 2 (QA-2).
pub fn traffic() -> AppSpec {
    traffic_with_gamma(0.8, 0.15)
}

/// `traffic` with explicit mean detections per frame (cars, faces) — rush
/// hour uses higher counts (§7.3.2: "more vehicles are detected, and
/// require follow-on analysis, on every frame").
fn traffic_with_gamma(cars: f64, faces: f64) -> AppSpec {
    AppSpec {
        name: "traffic".to_string(),
        slo: Micros::from_millis(400),
        stages: vec![
            AppStage {
                model: "ssd".to_string(),
                variants: 1,
                children: vec![
                    (1, GammaSpec::Poisson(cars)),
                    (2, GammaSpec::Poisson(faces)),
                ],
            },
            AppStage {
                model: "googlenet_car".to_string(),
                variants: 1,
                children: vec![],
            },
            AppStage {
                model: "vgg_face".to_string(),
                variants: 1,
                children: vec![],
            },
        ],
        streams: 20,
    }
}

/// Rush-hour variant of [`traffic`]: ~3× the detections per frame.
pub fn traffic_rush_hour() -> AppSpec {
    traffic_with_gamma(2.4, 0.45)
}

/// `dance` — rate dance performances: person detection then pose
/// recognition. Pose recognizer stood in by Inception-V3 (same compute
/// class as a single-person pose CNN). Depth 2 (QA-2).
pub fn dance() -> AppSpec {
    AppSpec {
        name: "dance".to_string(),
        slo: Micros::from_millis(250),
        stages: vec![
            AppStage {
                model: "ssd".to_string(),
                variants: 1,
                children: vec![(1, GammaSpec::Poisson(1.6))],
            },
            AppStage {
                model: "inception3".to_string(),
                variants: 1,
                children: vec![],
            },
        ],
        streams: 8,
    }
}

/// `bb` — billboard response gauging: person+face detection, then gaze and
/// age/sex recognition on each face (gaze/age/sex stood in by specialized
/// Inception-V3 and VGG-7 variants). Depth 3 (QA-3), prefix-batched.
pub fn bb() -> AppSpec {
    AppSpec {
        name: "bb".to_string(),
        slo: Micros::from_millis(300),
        stages: vec![
            AppStage {
                model: "ssd".to_string(),
                variants: 1,
                children: vec![(1, GammaSpec::Poisson(2.0))],
            },
            AppStage {
                model: "vgg_face".to_string(),
                variants: 4,
                children: vec![(2, GammaSpec::Fixed(1.0))],
            },
            AppStage {
                model: "vgg7".to_string(),
                variants: 4,
                children: vec![],
            },
        ],
        streams: 12,
    }
}

/// `bike` — bike-rack occupancy on buses: object detection, rack/bike
/// classification, text detection and recognition. Depth 4 (QA-4),
/// prefix-batched LeNet variants for characters. Text detector stood in by
/// VGG-7, classifier by Inception-V3.
pub fn bike() -> AppSpec {
    AppSpec {
        name: "bike".to_string(),
        slo: Micros::from_millis(400),
        stages: vec![
            AppStage {
                model: "ssd".to_string(),
                variants: 1,
                children: vec![(1, GammaSpec::Poisson(0.7))],
            },
            AppStage {
                model: "inception3".to_string(),
                variants: 2,
                children: vec![(2, GammaSpec::Fixed(1.0))],
            },
            AppStage {
                model: "vgg7".to_string(),
                variants: 2,
                children: vec![(3, GammaSpec::Poisson(4.0))],
            },
            AppStage {
                model: "lenet5".to_string(),
                variants: 6,
                children: vec![],
            },
        ],
        streams: 10,
    }
}

/// `amber` — match vehicles to an Amber-Alert description: detection, car
/// make/model recognition, license-plate text detection + recognition.
/// Depth 4 (QA-4), prefix-batched.
pub fn amber() -> AppSpec {
    AppSpec {
        name: "amber".to_string(),
        slo: Micros::from_millis(400),
        stages: vec![
            AppStage {
                model: "ssd".to_string(),
                variants: 1,
                children: vec![(1, GammaSpec::Poisson(1.5))],
            },
            AppStage {
                model: "googlenet_car".to_string(),
                variants: 3,
                children: vec![(2, GammaSpec::Poisson(0.8))],
            },
            AppStage {
                model: "vgg7".to_string(),
                variants: 3,
                children: vec![(3, GammaSpec::Fixed(6.0))],
            },
            AppStage {
                model: "lenet5".to_string(),
                variants: 8,
                children: vec![],
            },
        ],
        streams: 15,
    }
}

/// `logo` — audit corporate logo placement in sports footage: person
/// detection, torso/pose localization, logo detection, logo recognition,
/// jersey-number recognition. Depth 5 (QA-5), prefix-batched.
pub fn logo() -> AppSpec {
    AppSpec {
        name: "logo".to_string(),
        slo: Micros::from_millis(500),
        stages: vec![
            AppStage {
                model: "ssd".to_string(),
                variants: 1,
                children: vec![(1, GammaSpec::Poisson(1.8))],
            },
            AppStage {
                model: "inception3".to_string(),
                variants: 2,
                children: vec![(2, GammaSpec::Fixed(1.0))],
            },
            AppStage {
                model: "vgg7".to_string(),
                variants: 3,
                children: vec![(3, GammaSpec::Poisson(0.5))],
            },
            AppStage {
                model: "resnet50".to_string(),
                variants: 5,
                children: vec![(4, GammaSpec::Poisson(0.5))],
            },
            AppStage {
                model: "lenet5".to_string(),
                variants: 10,
                children: vec![],
            },
        ],
        streams: 6,
    }
}

/// All seven applications of Table 4.
pub fn all_apps() -> Vec<AppSpec> {
    vec![game(), traffic(), dance(), bb(), bike(), amber(), logo()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_apps_matching_table4() {
        let apps = all_apps();
        let names: Vec<_> = apps.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            ["game", "traffic", "dance", "bb", "bike", "amber", "logo"]
        );
    }

    #[test]
    fn qa_depths_match_table4() {
        for (app, depth) in all_apps().iter().zip([2, 2, 2, 3, 4, 4, 5]) {
            // game is written as depth-2 tree but is logically QA-1 (see
            // the builder comment); every other app matches its QA-k tag.
            assert_eq!(app.depth(), depth, "{}", app.name);
        }
    }

    #[test]
    fn pb_flags_match_table4() {
        // Table 4 marks PB for game, bb, bike, amber, logo: the apps with
        // a stage that deploys multiple variants.
        let pb: Vec<_> = all_apps()
            .into_iter()
            .filter(|a| a.stages.iter().any(|s| s.variants > 1))
            .map(|a| a.name)
            .collect::<Vec<_>>();
        assert_eq!(pb, ["game", "bb", "bike", "amber", "logo"]);
    }

    #[test]
    fn all_models_exist_in_catalog() {
        for app in all_apps() {
            for stage in &app.stages {
                assert!(
                    nexus_profile::by_name(&stage.model).is_some(),
                    "{}: unknown model {}",
                    app.name,
                    stage.model
                );
            }
        }
    }

    #[test]
    fn stage_rates_propagate_gamma() {
        let t = traffic_with_gamma(2.0, 0.5);
        let rates = t.stage_rates(100.0);
        assert_eq!(rates, vec![100.0, 200.0, 50.0]);
    }

    #[test]
    fn rush_hour_raises_follow_on_rates() {
        let normal = traffic().stage_rates(100.0);
        let rush = traffic_rush_hour().stage_rates(100.0);
        assert!(rush[1] > normal[1] * 2.0);
        assert!(rush[2] > normal[2] * 2.0);
    }

    #[test]
    fn game_matches_case_study_shape() {
        let g = game();
        assert_eq!(g.slo, Micros::from_millis(50));
        let rates = g.stage_rates(10.0);
        // 6 digits per frame.
        assert_eq!(rates[1], 60.0);
        assert_eq!(g.stages[0].variants, 20);
    }

    #[test]
    fn stage_trees_are_well_formed() {
        for app in all_apps() {
            for (i, stage) in app.stages.iter().enumerate() {
                for &(c, g) in &stage.children {
                    assert!(c > i && c < app.stages.len(), "{}", app.name);
                    assert!(g.mean() >= 0.0);
                }
            }
        }
    }
}
