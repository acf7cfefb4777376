"""coolreader.epub.view — Cool Reader rendering an EPUB book.

Workload: page reading with a page turn every couple of seconds.  Layout
and rendering run in the native CR3 engine (``libcr3engine-3-1-1.so`` —
the library visible in the paper's Figure 1), pixels blit through mspace,
and an AsyncTask pre-parses the next chapter (zip inflate + XML).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.apps.base import AgaveAppModel
from repro.libs import regions, skia
from repro.libs.registry import mapped_object
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.task import Task


class CoolReaderModel(AgaveAppModel):
    """coolreader.epub.view."""

    package = "org.coolreader"
    extra_libs = ("libcr3engine-3-1-1.so", "libz.so", "libexpat.so")
    dex_kb = 740
    method_count = 55
    avg_bytecodes = 340
    input_files = (("war-and-peace.epub", 1_400 * 1024),)

    page_turn_ms = 2_000
    chars_per_page = 1_800

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        book = self.file("war-and-peace.epub")
        system = app.stack.system
        cr3 = mapped_object(app.proc, "libcr3engine-3-1-1.so")
        # CR3 maps the book for random access during layout.
        book_vma = regions.map_asset(app.proc, "war-and-peace.epub", book.size)
        chapter = 0

        def preparse_chapter(worker: "Task") -> Iterator[Op]:
            libz = mapped_object(app.proc, "libz.so")
            yield from system.fs.read(worker, book, 96 * 1024, app.scratch_addr)
            yield libz.call(
                "inflate_block",
                insts=96 * app.ctx.cal.inflate_insts_per_kb,
                data=((app.scratch_addr, 96 * 4),),
            )
            yield cr3.call(
                "epub_parse",
                insts=260_000,
                data=((app.scratch_addr, 24_000), (cr3.data_addr(4096), 40_000)),
            )

        while True:
            # Layout the page in the CR3 engine.
            yield cr3.call(
                "layout_paragraphs",
                insts=self.chars_per_page * 120,
                data=(
                    (cr3.data_addr(2048), self.chars_per_page * 24),
                    (book_vma.start + 8_192, self.chars_per_page * 8),
                ),
            )
            # Render: engine drawing + glyph blits through mspace.
            yield cr3.call(
                "render_page",
                insts=self.chars_per_page * 60,
                data=((cr3.data_addr(8192), self.chars_per_page * 12),),
            )
            yield from app.draw_frame(task, coverage=0.85, glyphs=self.chars_per_page // 4)
            chapter += 1
            if chapter % 4 == 0:
                app.run_async(preparse_chapter)
            # Page-turn animation: three quick partial frames.
            for _ in range(3):
                yield Sleep(millis(33))
                yield from app.draw_frame(task, coverage=0.5, view_methods=2)
            yield Sleep(millis(self.page_turn_ms - 99))
