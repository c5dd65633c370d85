"""The 'no one size fits all' storage-mode tour.

Stores the same document as plain text, a materialized tree, and a
pooled binary TokenStream, then shows what each is good and bad at —
the tutorial's Design Considerations slide, measured.

Run:  python examples/storage_modes.py
"""

import time

from repro import Engine
from repro.storage import TextStore, TokenStore, TreeStore
from repro.tokens import tokens_from_events, write_binary
from repro.workloads import generate_xmark
from repro.xmlio.parser import parse_events

QUERY = "count(/site/people/person[profile/age > 40])"


def main() -> None:
    xml = generate_xmark(scale=0.4, seed=21)
    print(f"document: {len(xml):,} bytes of XML text\n")

    stores = [TextStore(xml_text=xml), TreeStore(xml_text=xml),
              TokenStore(xml_text=xml)]
    engine = Engine()
    compiled = engine.compile(QUERY)

    print(f"{'store':8s} {'resident':>12s} {'1st query':>12s} {'5 more':>12s}")
    for store in stores:
        t0 = time.perf_counter()
        doc = store.document()
        first = compiled.execute(context_item=doc).values()
        first_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            doc = store.document()  # text re-parses; others reuse
            compiled.execute(context_item=doc).values()
        more_s = time.perf_counter() - t0
        print(f"{store.kind:8s} {store.resident_bytes():>11,}B "
              f"{first_s * 1000:>10.1f}ms {more_s * 1000:>10.1f}ms   -> {first}")

    # pooling: dictionary compression of names and text
    tokens = list(tokens_from_events(parse_events(xml)))
    pooled = write_binary(tokens, pooled=True)
    plain = write_binary(tokens, pooled=False)
    print(f"\nbinary TokenStream : {len(plain):,} B unpooled, "
          f"{len(pooled):,} B pooled "
          f"({len(plain) / len(pooled):.2f}x smaller; "
          f"text was {len(xml):,} B)")


if __name__ == "__main__":
    main()
