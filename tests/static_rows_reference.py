"""Reference oracle for the static-graph baseline's input rows: the
`trainer._static_rows` that `dmf.forward(..., static_adj=...)` replaced,
kept so that the rows the forward makes can be checked against it bit for
bit. Only the imports differ."""

import numpy as np

from evacnet import dataio, graphs


def _static_rows(static_full, windows):
    """Each window's static-graph product Ã_w·[temporal ‖ spatial],
    (l, n_w, F), Ã_w the normalized block of the frozen graph over its
    predicted detectors; None when the variant has no static graph."""
    if static_full is None:
        return None
    return [graphs.gcn_normalize(static_full[np.ix_(w.det_indices,
                                                    w.det_indices)])
            @ dataio.gather_inputs([w], ("identity",))[:, 0]
            for w in windows]
