"""odr.{ppt,txt,xls}.view — OpenDocument Reader over three input types.

Workload: an AsyncTask parses the document (zip inflate + XML + model
building), then the main thread renders pages/slides/sheets with periodic
scrolling.  The three inputs shift the mix: ppt is image-heavy, txt is
text-layout-heavy, xls leans on interpreted cell evaluation — giving three
adjacent but distinct bars in the paper's figures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.apps.base import AgaveAppModel
from repro.libs.registry import mapped_object
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.task import Task


class _OdrBase(AgaveAppModel):
    """Shared OpenDocument Reader behaviour."""

    package = "at.tomtasche.reader"
    extra_libs = ("libz.so", "libexpat.so", "libxml2.so")
    dex_kb = 900
    method_count = 75
    avg_bytecodes = 360
    startup_classes = 300

    document_name = ""
    document_kb = 800
    #: Per-page render parameters (overridden per input type).
    page_turn_ms = 3_000
    page_glyphs = 400
    page_images_px = 0
    page_coverage = 0.7
    cell_eval_methods = 0

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        document = self.file(self.document_name)
        system = app.stack.system
        parsed_q = system.kernel.new_waitq(f"odr:{self.document_name}")

        def parse_document(worker: "Task") -> Iterator[Op]:
            cal = app.ctx.cal
            libz = mapped_object(app.proc, "libz.so")
            libexpat = mapped_object(app.proc, "libexpat.so")
            kb = self.document_kb
            yield from system.fs.read(worker, document, document.size, app.scratch_addr)
            yield libz.call(
                "inflate_block",
                insts=kb * cal.inflate_insts_per_kb,
                data=((app.scratch_addr, kb * 4),),
            )
            yield libexpat.call(
                "xml_parse_chunk",
                insts=kb * cal.xml_insts_per_kb,
                data=((app.scratch_addr, kb * 3),),
            )
            # Build the document model on the dalvik heap.
            yield from app.interpret_batch(60, worker)
            yield app.ctx.alloc(kb * 256)
            parsed_q.wake_all()

        app.run_async(parse_document)
        yield from app.interpret_batch(6, task)  # progress spinner setup

        page = 0
        while True:
            page += 1
            if page % 3 == 0:
                # The reader parses the next section ahead of the viewport.
                app.run_async(parse_document)
            if self.page_images_px:
                yield from app.decode_bitmap(self.page_images_px)
            if self.cell_eval_methods:
                yield from app.interpret_batch(self.cell_eval_methods, task)
            yield from app.draw_frame(
                task, coverage=self.page_coverage, glyphs=self.page_glyphs
            )
            # Scroll animation between pages.
            for _ in range(4):
                yield Sleep(millis(33))
                yield from app.draw_frame(
                    task, coverage=self.page_coverage * 0.5,
                    glyphs=self.page_glyphs // 3, view_methods=2,
                )
            yield Sleep(millis(self.page_turn_ms - 132))


class OdrPptModel(_OdrBase):
    """odr.ppt.view — slide deck: image-heavy."""

    document_name = "quarterly-review.ppt"
    document_kb = 2_400
    input_files = (("quarterly-review.ppt", 2_400 * 1024),)
    page_turn_ms = 3_000
    page_glyphs = 120
    page_images_px = 300_000
    page_coverage = 0.95


class OdrTxtModel(_OdrBase):
    """odr.txt.view — plain text: layout/glyph heavy."""

    document_name = "novel.txt"
    document_kb = 600
    input_files = (("novel.txt", 600 * 1024),)
    page_turn_ms = 2_200
    page_glyphs = 1_500
    page_images_px = 0
    page_coverage = 0.75


class OdrXlsModel(_OdrBase):
    """odr.xls.view — spreadsheet: interpreted cell evaluation."""

    document_name = "budget.xls"
    document_kb = 1_100
    input_files = (("budget.xls", 1_100 * 1024),)
    page_turn_ms = 2_600
    page_glyphs = 500
    page_images_px = 0
    page_coverage = 0.8
    cell_eval_methods = 25
