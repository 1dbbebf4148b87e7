//! The committed spec files cannot rot: every `*.campaign` under
//! `specs/` (the smoke grid and the paper figures) and the benchmark's
//! service spec must parse, expand, and name decoders their factories can
//! build on the matrices the engine would hand them — checked without
//! decoding a shot, so a renamed code slug, a decoder head the grammar
//! dropped or a config a constructor rejects fails here, not an hour
//! into a campaign.

use qldpc_campaign::{cell_decoder_inputs, CampaignSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn spec_files(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            spec_files(&path, found);
        } else if path.extension().is_some_and(|ext| ext == "campaign") {
            found.push(path);
        }
    }
}

#[test]
fn every_committed_spec_expands_and_builds_its_decoders() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    spec_files(&root.join("specs"), &mut files);
    spec_files(&root.join("benchmark/specs"), &mut files);
    files.sort();
    assert!(
        files
            .iter()
            .filter(|f| f.parent().unwrap().ends_with("specs/paper"))
            .count()
            >= 12,
        "the paper-figure specs are missing: {files:?}"
    );
    for file in &files {
        let spec =
            CampaignSpec::from_file(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let cells = spec
            .cells()
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert!(!cells.is_empty(), "{} expands to no cell", file.display());
        // Decoders and precisions vary fastest, so the matrices of one
        // (code, p, rounds) point are built once and shared.
        let mut inputs = BTreeMap::new();
        // REPRO.md tells the cells of one (code, p, rounds, precision)
        // point apart by decoder label alone.
        let mut labels = BTreeMap::new();
        for cell in &cells {
            let matrices = inputs
                .entry((cell.code_slug.clone(), cell.p.to_bits(), cell.rounds))
                .or_insert_with(|| cell_decoder_inputs(&spec, cell));
            let factory = cell.decoder.factory(cell.precision);
            for (_, h, priors) in matrices.iter() {
                let decoder = factory(h, priors);
                assert_eq!(decoder.family(), cell.decoder.family(), "{}", cell.id());
                assert_eq!(decoder.precision(), cell.precision, "{}", cell.id());
                let point = (cell.p.to_bits(), cell.rounds, cell.precision.name());
                let key = (&cell.code_slug, point, decoder.label());
                let other = labels.insert(key, cell.id()).unwrap_or_else(|| cell.id());
                assert_eq!(other, cell.id(), "two cells share a label");
            }
        }
    }
}
