//! Schemas for the catalogued models.
//!
//! Each builder produces a layer chain whose total parameter bytes and
//! GFLOPs match the [`nexus_profile::catalog`] spec for that model, with the
//! compute/parameter distribution of the real architecture approximated at
//! block granularity: convolutional backbones carry most of the FLOPs, final
//! fully-connected layers carry a parameter-heavy, compute-light tail. That
//! tail is what transfer learning retrains, so getting the split roughly
//! right is what makes the prefix-batching numbers (Fig. 15) meaningful.

use nexus_profile::catalog::{self, ModelSpec};

use crate::layer::{Layer, LayerKind};
use crate::schema::ModelSchema;

/// Distributes a model's parameters and compute over a backbone skeleton.
///
/// `skeleton` lists `(kind, param_weight, flops_weight)` rows; absolute
/// bytes/GFLOPs are allocated proportionally so totals match `spec`.
fn build_from_skeleton(
    spec: &ModelSpec,
    input: (u32, u32, u32),
    skeleton: &[(LayerKind, f64, f64)],
) -> ModelSchema {
    let param_total: f64 = skeleton.iter().map(|s| s.1).sum();
    let flops_total: f64 = skeleton.iter().map(|s| s.2).sum();
    assert!(param_total > 0.0 && flops_total > 0.0);
    let mut layers = Vec::with_capacity(skeleton.len() + 1);
    let (channels, height, width) = input;
    layers.push(Layer::new(
        LayerKind::Input {
            channels,
            height,
            width,
        },
        0,
        0.0,
    ));
    for (kind, pw, fw) in skeleton {
        let bytes = (spec.weight_bytes as f64 * pw / param_total).round() as u64;
        let gflops = spec.gflops * fw / flops_total;
        layers.push(Layer::new(kind.clone(), bytes, gflops));
    }
    ModelSchema::new(spec.name, layers)
}

/// LeNet-5: two conv layers, two FC layers, softmax.
pub fn lenet5() -> ModelSchema {
    build_from_skeleton(
        &catalog::LENET5,
        (1, 28, 28),
        &[
            (
                LayerKind::Conv {
                    out_channels: 6,
                    kernel: 5,
                    stride: 1,
                },
                0.5,
                25.0,
            ),
            (LayerKind::Pool { window: 2 }, 0.1, 1.0),
            (
                LayerKind::Conv {
                    out_channels: 16,
                    kernel: 5,
                    stride: 1,
                },
                5.0,
                40.0,
            ),
            (LayerKind::Pool { window: 2 }, 0.1, 1.0),
            (LayerKind::Fc { out_features: 120 }, 60.0, 20.0),
            (LayerKind::Fc { out_features: 84 }, 30.0, 10.0),
            (LayerKind::Softmax { classes: 10 }, 4.0, 3.0),
        ],
    )
}

/// Compact VGG-7.
pub fn vgg7() -> ModelSchema {
    build_from_skeleton(
        &catalog::VGG7,
        (3, 64, 64),
        &[
            (
                LayerKind::Conv {
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                },
                2.0,
                20.0,
            ),
            (
                LayerKind::Conv {
                    out_channels: 64,
                    kernel: 3,
                    stride: 1,
                },
                5.0,
                30.0,
            ),
            (LayerKind::Pool { window: 2 }, 0.0001, 0.5),
            (
                LayerKind::Conv {
                    out_channels: 128,
                    kernel: 3,
                    stride: 1,
                },
                13.0,
                30.0,
            ),
            (LayerKind::Pool { window: 2 }, 0.0001, 0.5),
            (LayerKind::Fc { out_features: 512 }, 70.0, 15.0),
            (LayerKind::Softmax { classes: 1000 }, 10.0, 4.0),
        ],
    )
}

/// ResNet-50: stem + four residual stages + classifier head.
pub fn resnet50() -> ModelSchema {
    build_from_skeleton(
        &catalog::RESNET50,
        (3, 224, 224),
        &[
            (
                LayerKind::Conv {
                    out_channels: 64,
                    kernel: 7,
                    stride: 2,
                },
                0.5,
                12.0,
            ),
            (LayerKind::Pool { window: 3 }, 0.0001, 0.5),
            (LayerKind::ResidualBlock { out_channels: 256 }, 3.0, 22.0),
            (LayerKind::ResidualBlock { out_channels: 512 }, 5.0, 25.0),
            (LayerKind::ResidualBlock { out_channels: 1024 }, 28.0, 25.0),
            (LayerKind::ResidualBlock { out_channels: 2048 }, 55.0, 14.0),
            (LayerKind::Pool { window: 7 }, 0.0001, 0.1),
            (LayerKind::Fc { out_features: 1000 }, 8.0, 1.0),
            (LayerKind::Softmax { classes: 1000 }, 0.5, 0.4),
        ],
    )
}

/// Inception-V4.
pub fn inception4() -> ModelSchema {
    build_from_skeleton(
        &catalog::INCEPTION4,
        (3, 299, 299),
        &[
            (
                LayerKind::Conv {
                    out_channels: 32,
                    kernel: 3,
                    stride: 2,
                },
                0.5,
                8.0,
            ),
            (LayerKind::InceptionBlock { out_channels: 384 }, 15.0, 30.0),
            (LayerKind::InceptionBlock { out_channels: 1024 }, 35.0, 35.0),
            (LayerKind::InceptionBlock { out_channels: 1536 }, 42.0, 25.0),
            (LayerKind::Pool { window: 8 }, 0.0001, 0.1),
            (LayerKind::Fc { out_features: 1000 }, 7.0, 1.5),
            (LayerKind::Softmax { classes: 1000 }, 0.5, 0.4),
        ],
    )
}

/// Inception-V3 (the Fig. 14 / Fig. 17 micro-benchmark model).
pub fn inception3() -> ModelSchema {
    build_from_skeleton(
        &catalog::INCEPTION3,
        (3, 299, 299),
        &[
            (
                LayerKind::Conv {
                    out_channels: 32,
                    kernel: 3,
                    stride: 2,
                },
                0.5,
                10.0,
            ),
            (LayerKind::InceptionBlock { out_channels: 288 }, 14.0, 35.0),
            (LayerKind::InceptionBlock { out_channels: 768 }, 38.0, 35.0),
            (LayerKind::InceptionBlock { out_channels: 1280 }, 40.0, 18.0),
            (LayerKind::Pool { window: 8 }, 0.0001, 0.1),
            (LayerKind::Fc { out_features: 1000 }, 7.0, 1.5),
            (LayerKind::Softmax { classes: 1000 }, 0.5, 0.4),
        ],
    )
}

/// Darknet-53.
pub fn darknet53() -> ModelSchema {
    build_from_skeleton(
        &catalog::DARKNET53,
        (3, 416, 416),
        &[
            (
                LayerKind::Conv {
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                },
                0.5,
                10.0,
            ),
            (LayerKind::ResidualBlock { out_channels: 128 }, 8.0, 25.0),
            (LayerKind::ResidualBlock { out_channels: 256 }, 16.0, 25.0),
            (LayerKind::ResidualBlock { out_channels: 512 }, 30.0, 25.0),
            (LayerKind::ResidualBlock { out_channels: 1024 }, 40.0, 13.0),
            (LayerKind::Fc { out_features: 1000 }, 5.0, 1.6),
            (LayerKind::Softmax { classes: 1000 }, 0.5, 0.4),
        ],
    )
}

/// SSD object detector: VGG-style backbone + detection head.
pub fn ssd() -> ModelSchema {
    build_from_skeleton(
        &catalog::SSD,
        (3, 512, 512),
        &[
            (
                LayerKind::Conv {
                    out_channels: 64,
                    kernel: 3,
                    stride: 1,
                },
                2.0,
                20.0,
            ),
            (
                LayerKind::Conv {
                    out_channels: 256,
                    kernel: 3,
                    stride: 1,
                },
                25.0,
                35.0,
            ),
            (
                LayerKind::Conv {
                    out_channels: 512,
                    kernel: 3,
                    stride: 1,
                },
                45.0,
                30.0,
            ),
            (LayerKind::DetectionHead { classes: 21 }, 28.0, 15.0),
        ],
    )
}

/// VGG-Face recognizer: VGG-16 backbone with an identity-embedding head.
pub fn vgg_face() -> ModelSchema {
    build_from_skeleton(
        &catalog::VGG_FACE,
        (3, 224, 224),
        &[
            (
                LayerKind::Conv {
                    out_channels: 64,
                    kernel: 3,
                    stride: 1,
                },
                0.5,
                20.0,
            ),
            (
                LayerKind::Conv {
                    out_channels: 256,
                    kernel: 3,
                    stride: 1,
                },
                5.0,
                40.0,
            ),
            (
                LayerKind::Conv {
                    out_channels: 512,
                    kernel: 3,
                    stride: 1,
                },
                15.0,
                30.0,
            ),
            (LayerKind::Fc { out_features: 4096 }, 70.0, 9.0),
            (LayerKind::Fc { out_features: 2622 }, 9.5, 1.0),
        ],
    )
}

/// GoogleNet car make/model classifier.
pub fn googlenet_car() -> ModelSchema {
    build_from_skeleton(
        &catalog::GOOGLENET_CAR,
        (3, 224, 224),
        &[
            (
                LayerKind::Conv {
                    out_channels: 64,
                    kernel: 7,
                    stride: 2,
                },
                1.0,
                15.0,
            ),
            (LayerKind::InceptionBlock { out_channels: 480 }, 25.0, 40.0),
            (LayerKind::InceptionBlock { out_channels: 832 }, 55.0, 40.0),
            (LayerKind::Pool { window: 7 }, 0.0001, 0.1),
            (LayerKind::Fc { out_features: 431 }, 18.0, 4.5),
            (LayerKind::Softmax { classes: 431 }, 1.0, 0.4),
        ],
    )
}

/// Builds the schema for a catalogued model by name.
pub fn by_name(name: &str) -> Option<ModelSchema> {
    match name {
        "lenet5" => Some(lenet5()),
        "vgg7" => Some(vgg7()),
        "resnet50" => Some(resnet50()),
        "inception4" => Some(inception4()),
        "inception3" => Some(inception3()),
        "darknet53" => Some(darknet53()),
        "ssd" => Some(ssd()),
        "vgg_face" => Some(vgg_face()),
        "googlenet_car" => Some(googlenet_car()),
        _ => None,
    }
}

/// All zoo builders paired with their catalog spec.
pub fn all() -> Vec<(&'static ModelSpec, ModelSchema)> {
    catalog::ALL_MODELS
        .iter()
        .map(|spec| (*spec, by_name(spec.name).expect("zoo covers catalog")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_entire_catalog() {
        let models = all();
        assert_eq!(models.len(), catalog::ALL_MODELS.len());
    }

    #[test]
    fn totals_match_catalog_spec() {
        for (spec, schema) in all() {
            let bytes = schema.total_param_bytes();
            let spec_bytes = spec.weight_bytes;
            let byte_err = (bytes as f64 - spec_bytes as f64).abs() / spec_bytes as f64;
            assert!(byte_err < 0.001, "{}: bytes off by {byte_err}", spec.name);
            let gf = schema.total_gflops();
            assert!(
                (gf - spec.gflops).abs() / spec.gflops < 1e-9,
                "{}: gflops {gf} vs {}",
                spec.name,
                spec.gflops
            );
        }
    }

    #[test]
    fn classifier_tails_are_compute_light() {
        // The last two layers (FC + softmax or equivalent) of each
        // classification model must hold a small share of FLOPs — that is
        // why suffix execution after a shared prefix is cheap.
        for name in ["resnet50", "inception4", "inception3", "googlenet_car"] {
            let schema = by_name(name).unwrap();
            let n = schema.num_layers();
            let tail_fraction = 1.0 - schema.prefix_flops_fraction(n - 2);
            assert!(
                tail_fraction < 0.10,
                "{name}: classifier tail holds {tail_fraction:.2} of FLOPs"
            );
        }
    }

    #[test]
    fn distinct_models_do_not_share_prefixes() {
        let a = resnet50();
        let b = inception4();
        // Different input shapes ⇒ not even the input layer is shared.
        assert_eq!(a.common_prefix_len(&b), 0);
    }

    #[test]
    fn same_builder_is_deterministic() {
        let (a, b) = (resnet50(), resnet50());
        assert_eq!(a.prefix_hash(a.num_layers()), b.prefix_hash(b.num_layers()));
    }
}
