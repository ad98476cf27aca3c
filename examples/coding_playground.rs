//! A small didactic example that works at the level of single spike trains:
//! it encodes one activation value under every coding, corrupts the trains
//! with deletion and jitter, and prints what each decoder recovers.
//!
//! This makes the paper's §III argument tangible without running a full
//! network: the same noise destroys very different amounts of *information*
//! depending on the coding.
//!
//! Run with:
//! ```text
//! cargo run --release --example coding_playground
//! ```

use nrsnn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), NrsnnError> {
    let cfg = CodingConfig::new(64, 1.0);
    let value = 0.6f32;
    let deletion = DeletionNoise::new(0.5)?;
    let jitter = JitterNoise::new(2.0)?;
    let mut rng = StdRng::seed_from_u64(7);

    println!(
        "encoding the activation value {value} over {} time steps\n",
        cfg.time_steps
    );
    println!(
        "{:<10}{:>8}{:>12}{:>16}{:>16}",
        "coding", "spikes", "clean", "50% deletion", "jitter σ=2"
    );

    let codings: Vec<CodingKind> = vec![
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Burst,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ];

    for kind in codings {
        let coding = kind.build();
        let train = coding.encode(value, &cfg);

        // Wrap the single train in a raster so the noise models apply; each
        // corrupts its own copy in place.
        let mut deleted = nrsnn_snn::SpikeRaster::new(1, cfg.time_steps);
        deleted.set_train(0, train.clone());
        let mut jittered = deleted.clone();
        deletion.apply(&mut deleted, &mut rng);
        jitter.apply(&mut jittered, &mut rng);

        let clean = coding.decode(&train, &cfg);
        let after_deletion = coding.decode(deleted.train(0), &cfg);
        let after_jitter = coding.decode(jittered.train(0), &cfg);

        println!(
            "{:<10}{:>8}{:>12.3}{:>16.3}{:>16.3}",
            kind.label(),
            train.len(),
            clean,
            after_deletion,
            after_jitter
        );
    }

    println!();
    println!("Things to notice (cf. §III of the paper):");
    println!(" * rate/phase/burst lose a graded fraction of the value under deletion;");
    println!(" * TTFS either keeps the whole value or loses all of it (all-or-none);");
    println!(" * rate is untouched by jitter, TTFS is hit hardest, TTAS averages it out.");

    Ok(())
}
